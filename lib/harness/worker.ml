(** Process-isolated job execution.

    A job runs in a forked child, so a segfault, an OOM, an infinite
    loop or a runaway allocation in the job is an {e exit status} the
    parent classifies — never the death of the supervisor. CompCertO's
    stance is that a component is characterized by its interactions
    with the environment; here the interaction is deliberately narrow:
    the child marshals one [('a, Diagnostics.t) result] over a pipe and
    exits, and everything else the parent learns comes from
    [waitpid].

    Watchdogs:

    - {e wall-clock}: the parent owns the deadline. The {!Pool}'s
      select loop calls {!kill} (SIGKILL, not catchable, not
      maskable) when a handle's deadline passes; a hang in the child —
      even in a tight non-allocating loop — cannot survive it.
    - {e memory}: the toolchain's [Unix] binding has no [setrlimit], so
      the child self-limits at the OCaml level: a [Gc] alarm checks the
      major-heap size after every major collection and exits with the
      reserved status {!oom_exit_code} when it exceeds the limit. This
      bounds what an OCaml job can allocate, which is the resource that
      actually runs away in this codebase (program terms, memory
      states), at zero cost to well-behaved jobs. *)

module Diag = Support.Diagnostics

(** Reserved exit status: the in-child memory watchdog tripped. *)
let oom_exit_code = 125

(** Reserved exit status: the child computed a result but could not
    marshal it onto the pipe (unmarshalable payload, closed or full
    pipe). Distinct from a crash: the job itself completed. *)
let pipe_write_exit_code = 3

(** What became of a worker, classified by the parent. *)
type 'a verdict =
  | Returned of ('a, Diag.t) result
      (** the child ran the job to completion and sent its result —
          which may well be [Error]; that is a structured job failure,
          not a worker failure *)
  | Crashed of string  (** the child died: signal, bad exit, torn pipe *)
  | Pipe_write_failed
      (** the job ran to completion but its result never made it onto
          the pipe ({!pipe_write_exit_code}) *)
  | Oom  (** the child's memory watchdog tripped *)
  | Timed_out  (** the parent killed the child at its deadline *)

type handle = {
  pid : int;
  fd : Unix.file_descr;  (** read end of the result pipe *)
  buf : Buffer.t;  (** marshaled result accumulates here *)
  deadline_us : float;  (** [infinity] when the job has no timeout *)
}

let signal_name s =
  let names =
    [
      (Sys.sigsegv, "SIGSEGV"); (Sys.sigkill, "SIGKILL");
      (Sys.sigabrt, "SIGABRT"); (Sys.sigbus, "SIGBUS");
      (Sys.sigfpe, "SIGFPE"); (Sys.sigill, "SIGILL");
      (Sys.sigint, "SIGINT"); (Sys.sigterm, "SIGTERM");
      (Sys.sigpipe, "SIGPIPE");
    ]
  in
  match List.assoc_opt s names with
  | Some n -> n
  | None -> Printf.sprintf "signal %d" s

(** Arm the in-child memory watchdog: after each major collection,
    exit with {!oom_exit_code} if the major heap exceeds the limit. *)
let arm_memory_watchdog bytes =
  let words = bytes / (Sys.word_size / 8) in
  ignore
    (Gc.create_alarm (fun () ->
         if (Gc.quick_stat ()).Gc.heap_words > words then Unix._exit oom_exit_code))

(** Fork a worker for [job]. The child runs [job ()], catching every
    exception into an [Internal_error] diagnostic, marshals the result
    to the pipe and [_exit]s 0 (no [at_exit], no double-flushed
    buffers). The caller's payload must be marshalable (no closures) —
    every payload in this repo is plain data.

    Cross-process telemetry (ISSUE 6): when observability is on (the
    child inherits the parent's [Obs.enabled] through fork), the child
    first clears the sinks it inherited with the memory image, runs the
    job inside a span named [label] (carrying [attrs]), and ships an
    {!Obs.Snapshot} of everything it recorded — spans, counters,
    gauges, histogram sketches — over the pipe next to the result. The
    parent merges it in {!reap}, grafting the spans under the worker's
    real pid. *)
let spawn ?timeout_us ?memlimit_bytes ?(label = "job") ?(attrs = [])
    (job : unit -> ('a, Diag.t) result) : handle =
  flush stdout;
  flush stderr;
  let rfd, wfd = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    (* child *)
    Unix.close rfd;
    (* The parent may have installed interrupt handlers that raise to
       flush its sinks; a worker has no sinks — die by default. *)
    (try Sys.set_signal Sys.sigint Sys.Signal_default with _ -> ());
    (try Sys.set_signal Sys.sigterm Sys.Signal_default with _ -> ());
    Option.iter arm_memory_watchdog memlimit_bytes;
    let obs_on = !Obs.enabled in
    if obs_on then Obs.reset_all ();
    let body () =
      match job () with
      | r -> r
      | exception e -> Error (Diag.of_exn ~phase:Diag.Batch e)
    in
    let result =
      if obs_on then Obs.Trace.with_span ~attrs label body else body ()
    in
    let payload :
        ('a, Diag.t) result * Obs.Snapshot.t option =
      (result, if obs_on then Some (Obs.Snapshot.capture ()) else None)
    in
    (try
       let oc = Unix.out_channel_of_descr wfd in
       Marshal.to_channel oc payload [];
       flush oc
     with _ -> Unix._exit pipe_write_exit_code);
    Unix._exit 0
  | pid ->
    Unix.close wfd;
    let now = Obs.now_us () in
    {
      pid;
      fd = rfd;
      buf = Buffer.create 256;
      deadline_us =
        (match timeout_us with Some t -> now +. t | None -> infinity);
    }

(** Read whatever the pipe has; [`Eof] means the child closed its end
    (it finished or died) and the handle is ready to {!reap}. *)
let read_chunk (h : handle) : [ `More | `Eof ] =
  let chunk = Bytes.create 65536 in
  match Unix.read h.fd chunk 0 (Bytes.length chunk) with
  | 0 -> `Eof
  | n ->
    Buffer.add_subbytes h.buf chunk 0 n;
    `More
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `More

(** SIGKILL the worker (idempotent; ESRCH is fine — it already died). *)
let kill (h : handle) =
  try Unix.kill h.pid Sys.sigkill with Unix.Unix_error _ -> ()

(** Wait for the child and classify. [timed_out] is the parent's
    verdict and overrides the exit status (a SIGKILLed child reports
    WSIGNALED, but the cause is the deadline). Once per handle: the
    {!Pool} reaps each worker exactly once. *)
let reap (h : handle) ~timed_out : 'a verdict =
  let rec wait () =
    match Unix.waitpid [] h.pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  (try Unix.close h.fd with Unix.Unix_error _ -> ());
  if timed_out then Timed_out
  else
    match status with
    | Unix.WEXITED 0 -> (
      match
        (Marshal.from_bytes (Buffer.to_bytes h.buf) 0
          : ('a, Diag.t) result * Obs.Snapshot.t option)
      with
      | result, snap ->
        (* The worker's telemetry folds into this process's sinks:
           counters add, gauges last-write-wins, histograms merge
           bucket-wise, spans graft under the worker's pid. The merge
           cost is itself metered (obs.snapshot_merge_us), so a batch
           report shows what the cross-process telemetry costs. *)
        Option.iter
          (fun s ->
            let t0 = Obs.now_us () in
            Obs.Snapshot.merge ~pid:h.pid s;
            Obs.Metrics.observe "obs.snapshot_merge_us" (Obs.now_us () -. t0))
          snap;
        Returned result
      | exception _ -> Crashed "result pipe carried a torn marshal")
    | Unix.WEXITED c when c = oom_exit_code -> Oom
    | Unix.WEXITED c when c = pipe_write_exit_code -> Pipe_write_failed
    | Unix.WEXITED c -> Crashed (Printf.sprintf "exit %d" c)
    | Unix.WSIGNALED s -> Crashed (signal_name s)
    | Unix.WSTOPPED s -> Crashed (Printf.sprintf "stopped by %s" (signal_name s))
