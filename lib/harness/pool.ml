(** The worker pool: the one place forked {!Worker}s are spawned,
    watched and reaped.

    A caller submits thunks, each with the instant it becomes ready
    (backoff), an optional end-to-end deadline, a per-attempt
    wall-clock timeout, a memory cap and a span label, and drives the
    pool by calling {!poll} from its own loop. One turn of {!poll}:

    + hands every queued task whose deadline has passed to its
      [on_expire];
    + launches ready tasks while fewer than [capacity] workers run (a
      task's [admit] hook may still decline at that moment);
    + kills every worker past its deadline;
    + waits on the workers' result pipes and the caller's own fds until
      the nearest deadline or ready time, at most [max_wait_s];
    + reaps each worker whose pipe closed and hands its {!Worker.verdict}
      to the task's [on_verdict].

    It returns the caller's fds that became readable. {!shutdown} kills
    and reaps every worker, so none outlives its driver. The pool holds
    no policy: retries, breakers, journals and admission belong to its
    two drivers, {!Supervisor} ([occo batch], [occo fuzz] and the
    campaigns) and the compile daemon ([occo serve]). The loop is
    single-threaded and time comes from the monotonic [Obs.now_us]. *)

module Diag = Support.Diagnostics

type 'a task = {
  t_run : unit -> ('a, Diag.t) result;  (** runs in the forked child *)
  t_ready_us : float;  (** not launched before this instant *)
  t_deadline_us : float;
      (** end to end: expires the task while queued and caps its
          worker's watchdog; [infinity] when there is none *)
  t_timeout_us : float option;  (** per-attempt wall-clock cap *)
  t_memlimit_bytes : int option;
  t_label : string;
  t_attrs : (string * Obs.Json.t) list;
  t_admit : now:float -> bool;
  t_on_expire : now:float -> unit;
  t_on_verdict : now:float -> 'a Worker.verdict -> unit;
}

type 'a t = {
  capacity : int;  (** max concurrent workers *)
  mutable queue : 'a task list;  (** in submission order *)
  mutable running : ('a task * Worker.handle) list;
}

let create ~capacity = { capacity = max 1 capacity; queue = []; running = [] }
let queued p = List.length p.queue
let running p = List.length p.running
let idle p = p.queue = [] && p.running = []

(** Queue [run]. [admit] is asked at launch time whether the task may
    still start (a driver's circuit breaker lives there); a task it
    declines is dropped, and [admit] is expected to have answered it. *)
let submit p ?(ready_us = neg_infinity) ?(deadline_us = infinity) ?timeout_us
    ?memlimit_bytes ?(label = "job") ?(attrs = [])
    ?(admit = fun ~now:_ -> true) ?(on_expire = fun ~now:_ -> ()) ~on_verdict
    run =
  p.queue <-
    p.queue
    @ [
        {
          t_run = run;
          t_ready_us = ready_us;
          t_deadline_us = deadline_us;
          t_timeout_us = timeout_us;
          t_memlimit_bytes = memlimit_bytes;
          t_label = label;
          t_attrs = attrs;
          t_admit = admit;
          t_on_expire = on_expire;
          t_on_verdict = on_verdict;
        };
      ]

let launch p ~now t =
  if t.t_admit ~now then begin
    (* The worker may use at most what is left of the end-to-end
       deadline, and at most the per-attempt cap. *)
    let left = t.t_deadline_us -. now in
    let timeout_us =
      match t.t_timeout_us with
      | Some cap -> Some (Float.min cap left)
      | None -> if left = infinity then None else Some left
    in
    let h =
      Worker.spawn ?timeout_us ?memlimit_bytes:t.t_memlimit_bytes
        ~label:t.t_label ~attrs:t.t_attrs t.t_run
    in
    p.running <- (t, h) :: p.running
  end

let finish p ~timed_out ~now (t, h) =
  p.running <- List.filter (fun (_, h') -> h' != h) p.running;
  if timed_out then Worker.kill h;
  t.t_on_verdict ~now (Worker.reap h ~timed_out)

(** One turn of the pool (see the module comment). [fds] is asked for
    the caller's fds just before the [select], after the expiry, launch
    and kill hooks ran, so a connection one of them closed is not
    watched. Without caller fds and with nothing queued or running it
    returns at once. *)
let poll p ?(fds = fun () -> []) ~max_wait_s () : Unix.file_descr list =
  let now = Obs.now_us () in
  let expired, alive =
    List.partition (fun t -> now >= t.t_deadline_us) p.queue
  in
  p.queue <- alive;
  List.iter (fun t -> t.t_on_expire ~now) expired;
  let rec fill () =
    if List.length p.running < p.capacity then
      match List.partition (fun t -> t.t_ready_us <= now) p.queue with
      | t :: rest, later ->
        p.queue <- rest @ later;
        launch p ~now t;
        fill ()
      | [], _ -> ()
  in
  fill ();
  List.iter
    (fun ((_, h) as r) ->
      if now >= h.Worker.deadline_us then finish p ~timed_out:true ~now r)
    p.running;
  let fds = fds () in
  if fds = [] && idle p then []
  else begin
    (* A queued task's ready time only matters while a worker slot is
       free; with every slot busy, a worker finishing wakes the select. *)
    let slot_free = List.length p.running < p.capacity in
    let horizon =
      List.fold_left
        (fun acc (_, h) -> Float.min acc h.Worker.deadline_us)
        infinity p.running
    in
    let horizon =
      List.fold_left
        (fun acc t ->
          Float.min acc
            (if slot_free then Float.min t.t_ready_us t.t_deadline_us
             else t.t_deadline_us))
        horizon p.queue
    in
    let wait_s = Float.max 0. (Float.min max_wait_s ((horizon -. now) /. 1e6)) in
    let worker_fds = List.map (fun (_, h) -> h.Worker.fd) p.running in
    match Unix.select (fds @ worker_fds) [] [] wait_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | ready, _, _ ->
      List.filter
        (fun fd ->
          match List.find_opt (fun (_, h) -> h.Worker.fd = fd) p.running with
          | None -> true
          | Some ((_, h) as r) ->
            (match Worker.read_chunk h with
            | `More -> ()
            | `Eof -> finish p ~timed_out:false ~now:(Obs.now_us ()) r);
            false)
        ready
  end

(** Kill and reap every worker and drop the queue. Drivers call it on
    every exit, an interrupt included. *)
let shutdown p =
  List.iter
    (fun (_, h) ->
      Worker.kill h;
      ignore (Worker.reap h ~timed_out:true))
    p.running;
  p.running <- [];
  p.queue <- []

(** Run one job synchronously under the watchdogs: the one-shot form
    for tests and simple callers. *)
let run_one ?timeout_us ?memlimit_bytes ?label ?attrs
    (job : unit -> ('a, Diag.t) result) : 'a Worker.verdict =
  let p = create ~capacity:1 in
  let verdict = ref None in
  submit p ?timeout_us ?memlimit_bytes ?label ?attrs
    ~on_verdict:(fun ~now:_ v -> verdict := Some v)
    job;
  Fun.protect
    ~finally:(fun () -> shutdown p)
    (fun () ->
      while not (idle p) do
        ignore (poll p ~max_wait_s:1. ())
      done);
  Option.get !verdict
