(** The supervised batch executor.

    Runs a list of jobs through forked {!Worker} processes, up to a
    configured concurrency, and degrades gracefully instead of
    crashing:

    - a worker that segfaults, OOMs or hangs becomes a structured
      [Job_crashed] / [Job_timeout] outcome ({!Worker});
    - transient failures ({!Support.Diagnostics.is_transient}) are
      retried with exponential backoff + jitter ({!Backoff});
    - a job class that keeps failing trips its circuit breaker and
      later jobs of the class are shed fast ({!Breaker});
    - every terminal outcome is appended, fsync'd, to the checkpoint
      journal, and a resumed run skips completed jobs
      ({!Checkpoint});
    - a job whose retries are exhausted can fall back to a {e degraded}
      variant (e.g. recompiling at [-O0], keeping partial artifacts) —
      a lesser answer beats no answer.

    Spawning, watching and reaping workers is the {!Pool}'s job; the
    supervisor keeps only the policy — per-class breakers, retry then
    degrade, and the journal. *)

module Diag = Support.Diagnostics

(** One unit of work. [job_run] executes in the forked child (which
    inherits the parent's memory image, so it may capture arbitrary
    state); its payload crosses back over a pipe and must therefore be
    marshalable — plain data, no closures. *)
type 'a job = {
  job_id : string;  (** stable across runs: the checkpoint key *)
  job_class : string;  (** breaker bucket, e.g. "compile" *)
  job_run : attempt:int -> ('a, Diag.t) result;
  job_degraded : (unit -> ('a, Diag.t) result) option;
      (** last-resort fallback once retries are exhausted *)
}

type status =
  | Completed  (** the job returned [Ok] *)
  | Degraded  (** the fallback returned [Ok] after the job failed *)
  | Failed  (** the job returned a structured [Error] *)
  | Crashed  (** the worker died (signal, bad exit, OOM) *)
  | Timed_out  (** the worker hit its wall-clock deadline *)
  | Shed  (** never ran: the class's breaker was open *)
  | Skipped  (** never ran: the journal says it already completed *)

let status_name = function
  | Completed -> "ok"
  | Degraded -> "degraded"
  | Failed -> "failed"
  | Crashed -> "crashed"
  | Timed_out -> "timeout"
  | Shed -> "shed"
  | Skipped -> "skipped"

(** Did the supervisor deliver an answer for this job (possibly a
    lesser one)? The batch exit code is the conjunction of these. *)
let status_ok = function
  | Completed | Degraded | Skipped -> true
  | Failed | Crashed | Timed_out | Shed -> false

type 'a outcome = {
  o_id : string;
  o_class : string;
  o_status : status;
  o_payload : 'a option;  (** present for [Completed] / [Degraded] *)
  o_diag : Diag.t option;  (** present for every non-success *)
  o_attempts : int;  (** worker launches, including the degraded one *)
  o_elapsed_us : float;  (** first launch to terminal outcome *)
}

type config = {
  c_jobs : int;  (** max concurrent workers *)
  c_retries : int;  (** extra attempts for transient failures *)
  c_timeout_us : float option;  (** per-attempt wall-clock deadline *)
  c_memlimit_bytes : int option;  (** per-worker major-heap cap *)
  c_backoff : Backoff.policy;
  c_breaker_threshold : int;
  c_breaker_cooldown_us : float;
  c_seed : int;  (** jitter determinism *)
  c_journal : string option;  (** checkpoint journal path *)
  c_resume : bool;  (** skip jobs the journal completed *)
}

let default_config =
  {
    c_jobs = 1;
    c_retries = 2;
    c_timeout_us = Some 60e6;
    c_memlimit_bytes = None;
    c_backoff = Backoff.default;
    c_breaker_threshold = 5;
    c_breaker_cooldown_us = 2e6;
    c_seed = 0;
    c_journal = None;
    c_resume = false;
  }

(* ------------------------------------------------------------------ *)
(* The policy over the pool                                           *)
(* ------------------------------------------------------------------ *)

(* What the supervisor tracks per job across its attempts. *)
type 'a tracked = {
  t_job : 'a job;
  t_rng : Random.State.t;  (** per-job deterministic jitter *)
  mutable t_launches : int;  (** workers spawned for this job *)
  mutable t_first_us : float option;  (** when the first worker started *)
}

let run ?(on_outcome = fun (_ : 'a outcome) -> ()) (cfg : config)
    (jobs : 'a job list) : 'a outcome list =
  let completed_before =
    match (cfg.c_resume, cfg.c_journal) with
    | true, Some path -> Checkpoint.completed_ids (Checkpoint.load path)
    | _ -> Hashtbl.create 1
  in
  let writer =
    (* A fresh (non-resume) run truncates: its journal describes this
       run only. A resumed run appends to the record it is completing. *)
    Option.map
      (Checkpoint.open_journal ~truncate:(not cfg.c_resume))
      cfg.c_journal
  in
  let outcomes : (string, 'a outcome) Hashtbl.t = Hashtbl.create 64 in
  let breakers : (string, Breaker.t) Hashtbl.t = Hashtbl.create 8 in
  let breaker cls =
    match Hashtbl.find_opt breakers cls with
    | Some b -> b
    | None ->
      let b =
        Breaker.create ~threshold:cfg.c_breaker_threshold
          ~cooldown_us:cfg.c_breaker_cooldown_us cls
      in
      Hashtbl.add breakers cls b;
      b
  in
  let finalize ?payload ?diag ~now (t : 'a tracked) (st : status) =
    let elapsed =
      match t.t_first_us with Some t0 -> now -. t0 | None -> 0.
    in
    let o =
      {
        o_id = t.t_job.job_id;
        o_class = t.t_job.job_class;
        o_status = st;
        o_payload = payload;
        o_diag = diag;
        o_attempts = t.t_launches;
        o_elapsed_us = elapsed;
      }
    in
    Hashtbl.replace outcomes o.o_id o;
    Obs.Metrics.incr_counter ("harness.jobs." ^ status_name st);
    if st <> Skipped then Obs.Metrics.observe "harness.job_us" elapsed;
    Option.iter
      (fun w ->
        if st <> Skipped then
          Checkpoint.append w
            {
              Checkpoint.e_id = o.o_id;
              e_class = o.o_class;
              e_status = status_name st;
              e_attempts = o.o_attempts;
              e_elapsed_us = elapsed;
            })
      writer;
    on_outcome o
  in
  let diag_of (t : 'a tracked) = function
    | Worker.Returned (Error d) -> d
    | v ->
      let kind, msg =
        match v with
        | Worker.Crashed why -> (Diag.Job_crashed, "worker died: " ^ why)
        | Worker.Pipe_write_failed ->
          ( Diag.Job_crashed,
            "worker completed but could not write its result to the pipe" )
        | Worker.Oom -> (Diag.Resource_exhausted, "worker exceeded its memory limit")
        | Worker.Timed_out -> (Diag.Job_timeout, "worker exceeded its wall-clock limit")
        | Worker.Returned _ -> assert false
      in
      Diag.make ~phase:Diag.Batch ~kind ~context:[ ("job", t.t_job.job_id) ] "%s"
        msg
  in
  let terminal_status = function
    | Worker.Returned _ -> Failed
    | Worker.Crashed _ | Worker.Pipe_write_failed | Worker.Oom -> Crashed
    | Worker.Timed_out -> Timed_out
  in
  let pool = Pool.create ~capacity:cfg.c_jobs in
  (* Queue one attempt of [t]; the class's breaker decides at launch
     time whether it runs or is shed. *)
  let rec submit ~ready_us ~attempt ~degraded (t : 'a tracked) =
    let job = t.t_job in
    let admit ~now =
      if Breaker.allow (breaker job.job_class) ~now_us:now then begin
        Obs.Metrics.incr_counter "harness.jobs.launched";
        t.t_launches <- t.t_launches + 1;
        if t.t_first_us = None then t.t_first_us <- Some now;
        true
      end
      else begin
        finalize ~now
          ~diag:
            (Diag.make ~phase:Diag.Batch ~kind:Diag.Circuit_open
               ~context:[ ("class", job.job_class) ]
               "job shed: circuit breaker for class %s is open" job.job_class)
          t Shed;
        false
      end
    in
    Pool.submit pool ~ready_us ?timeout_us:cfg.c_timeout_us
      ?memlimit_bytes:cfg.c_memlimit_bytes ~label:("job:" ^ job.job_id)
      ~attrs:
        [
          ("class", Obs.Json.Str job.job_class);
          ("attempt", Obs.Json.num_of_int attempt);
          ("degraded", Obs.Json.Bool degraded);
        ]
      ~admit
      ~on_verdict:(conclude ~attempt ~degraded t)
      (if degraded then Option.get job.job_degraded
       else fun () -> job.job_run ~attempt)
  (* Decide what a finished attempt leads to: retry with backoff,
     degrade, or a terminal outcome. *)
  and conclude ~attempt ~degraded t ~now (v : 'a Worker.verdict) =
    let ok = match v with Worker.Returned (Ok _) -> true | _ -> false in
    Breaker.record (breaker t.t_job.job_class) ~now_us:now ~ok;
    match v with
    | Worker.Returned (Ok payload) ->
      finalize ~now ~payload t (if degraded then Degraded else Completed)
    | v ->
      let d = diag_of t v in
      if degraded then
        (* The fallback itself failed: terminal, no more lifelines. *)
        finalize ~now ~diag:d t (terminal_status v)
      else if Diag.is_transient d.Diag.kind && attempt < cfg.c_retries then begin
        Obs.Metrics.incr_counter "harness.jobs.retries";
        let delay =
          Backoff.delay_us cfg.c_backoff ~rng:t.t_rng ~attempt:(attempt + 1)
        in
        submit ~ready_us:(now +. delay) ~attempt:(attempt + 1) ~degraded:false t
      end
      else if t.t_job.job_degraded <> None then begin
        Obs.Metrics.incr_counter "harness.jobs.degraded_attempts";
        submit ~ready_us:now ~attempt ~degraded:true t
      end
      else finalize ~now ~diag:d t (terminal_status v)
  in
  (* Initial queue: everything the journal has not already completed. *)
  let now0 = Obs.now_us () in
  List.iter
    (fun j ->
      let t =
        {
          t_job = j;
          t_rng = Random.State.make [| cfg.c_seed; Hashtbl.hash j.job_id |];
          t_launches = 0;
          t_first_us = None;
        }
      in
      if Hashtbl.mem completed_before j.job_id then finalize ~now:now0 t Skipped
      else submit ~ready_us:now0 ~attempt:0 ~degraded:false t)
    jobs;
  let loop () =
    while not (Pool.idle pool) do
      (* Service gauges: what the supervisor looks like from outside,
         one write per loop turn (no-ops with observability off). *)
      Obs.Metrics.set_gauge "harness.queue_depth"
        (float_of_int (Pool.queued pool));
      Obs.Metrics.set_gauge "harness.inflight" (float_of_int (Pool.running pool));
      ignore (Pool.poll pool ~max_wait_s:0.5 ())
    done
  in
  (* On any exit — including an interrupt raised from a signal handler —
     no worker outlives the supervisor, and the journal fd is closed
     (every line already hit the disk via fsync). *)
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown pool;
      Option.iter Checkpoint.close writer)
    loop;
  let t_end = Obs.now_us () in
  Obs.Metrics.set_gauge "harness.queue_depth" 0.;
  Obs.Metrics.set_gauge "harness.inflight" 0.;
  let executed =
    Hashtbl.fold
      (fun _ o n -> if o.o_status <> Skipped then n + 1 else n)
      outcomes 0
  in
  let elapsed_s = (t_end -. now0) /. 1e6 in
  if executed > 0 && elapsed_s > 0. then
    Obs.Metrics.set_gauge "harness.jobs_per_s"
      (float_of_int executed /. elapsed_s);
  List.filter_map (fun j -> Hashtbl.find_opt outcomes j.job_id) jobs

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

let count (outcomes : 'a outcome list) (st : status) =
  List.length (List.filter (fun o -> o.o_status = st) outcomes)

(** True iff every job ended in an acceptable state. *)
let all_ok (outcomes : 'a outcome list) =
  List.for_all (fun o -> status_ok o.o_status) outcomes

let pp_summary fmt (outcomes : 'a outcome list) =
  let line st =
    let n = count outcomes st in
    if n > 0 then Format.fprintf fmt "  %-8s %d@." (status_name st) n
  in
  Format.fprintf fmt "%d job%s:@." (List.length outcomes)
    (if List.length outcomes = 1 then "" else "s");
  List.iter line
    [ Completed; Degraded; Skipped; Failed; Crashed; Timed_out; Shed ]

let outcome_to_json ?payload_to_json (o : 'a outcome) : Obs.Json.t =
  let open Obs.Json in
  Obj
    ([
       ("job", Str o.o_id);
       ("class", Str o.o_class);
       ("status", Str (status_name o.o_status));
       ("attempts", num_of_int o.o_attempts);
       ("elapsed_us", Num o.o_elapsed_us);
     ]
    @ (match o.o_diag with
      | Some d -> [ ("diagnostic", Str (Diag.to_string d)) ]
      | None -> [])
    @
    match (payload_to_json, o.o_payload) with
    | Some f, Some p -> [ ("payload", f p) ]
    | _ -> [])

let report_to_json ?payload_to_json (outcomes : 'a outcome list) : Obs.Json.t =
  let open Obs.Json in
  Obj
    [
      ("jobs", num_of_int (List.length outcomes));
      ("ok", Bool (all_ok outcomes));
      ( "counts",
        Obj
          (List.map
             (fun st -> (status_name st, num_of_int (count outcomes st)))
             [ Completed; Degraded; Skipped; Failed; Crashed; Timed_out; Shed ])
      );
      ( "results",
        List (List.map (outcome_to_json ?payload_to_json) outcomes) );
    ]
