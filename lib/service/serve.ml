(** The compile service: a long-running supervisor loop accepting
    compile requests over a Unix-domain socket ([occo serve]).

    One single-threaded loop drives a {!Harness.Pool} of forked
    compile workers and hands the pool's [select] its own fds — the
    listening socket and the client connections (one line-JSON request
    per line, {!Protocol}) — so the daemon itself never blocks on any
    one of them. The daemon process
    {e never compiles}: compilation interns identifiers
    ({!Support.Ident} is positional and process-global), and keeping
    the parent's intern table frozen after startup is what makes every
    forked worker see the same table and hence makes marshaled RTL
    cache entries meaningful within a store epoch ({!Cache}). The only
    cache access the parent allows itself is the JSON summary probe —
    the warm fast path that answers a repeat request without forking
    at all.

    Failure modes, each first-class:

    - {e corrupt cache entry}: quarantined by verify-on-read, then the
      request just falls through to a worker and re-derives
      ([serve.cache.corrupt]); a corrupt entry is never served;
    - {e poison job}: a request whose workers crash [s_poison_threshold]
      times is quarantined with a [Poisoned] diagnostic, journaled, and
      never retried into a crash loop — repeats are rejected instantly,
      across restarts ([serve.poisoned]);
    - {e overload}: the queue is bounded; beyond the watermark new work
      degrades to the [-O0] fast path, beyond the cap it is shed with
      [Overloaded] ([serve.shed.overload]);
    - {e deadlines}: a request's [deadline_ms] is enforced end-to-end —
      while queued, and as the worker's wall-clock watchdog
      ([serve.deadline_exceeded]);
    - {e breaker}: consecutive worker failures open the compile class's
      circuit breaker; shed requests fail fast with [Circuit_open]
      ([serve.shed.breaker]);
    - {e SIGTERM}: drain — stop accepting, finish queued and in-flight
      work, compact the journal, remove the socket, exit 0;
    - {e kill -9}: the journal (fsync'd line-JSON) and the cache
      (atomic renames) survive; [--resume] reloads the poison set,
      compacts the journal, and the cache-index rebuild scan in
      {!Cache.open_store} scrubs orphan temp files.

    Chaos mode ([--inject-crash], [--inject-hang], [--inject-corrupt])
    makes workers misbehave on purpose so CI can prove each of those
    paths survives contact with reality. *)

module Json = Obs.Json
module Diag = Support.Diagnostics
module Worker = Harness.Worker
module Pool = Harness.Pool
module Breaker = Harness.Breaker
module Backoff = Harness.Backoff
module Checkpoint = Harness.Checkpoint

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)
(* ------------------------------------------------------------------ *)

type chaos = {
  ch_crash : bool;  (** each compile's first attempt SIGSEGVs itself *)
  ch_crash_forever : bool;  (** ... and so does every retry (→ poison) *)
  ch_hang : bool;  (** one attempt spins until the watchdog kills it *)
  ch_corrupt : bool;  (** flip a byte in each freshly written summary *)
}

let no_chaos =
  { ch_crash = false; ch_crash_forever = false; ch_hang = false;
    ch_corrupt = false }

type config = {
  s_socket : string;  (** Unix-domain socket path *)
  s_cache_dir : string;
  s_jobs : int;  (** max concurrent compile workers *)
  s_retries : int;  (** extra attempts for transient failures *)
  s_timeout_us : float option;  (** per-attempt wall-clock cap *)
  s_memlimit_bytes : int option;
  s_queue_cap : int;  (** bound on queued requests; beyond: shed *)
  s_degrade_watermark : int;  (** queue depth that forces [-O0] *)
  s_poison_threshold : int;  (** worker crashes before quarantine *)
  s_breaker_threshold : int;
  s_breaker_cooldown_us : float;
  s_journal : string option;
  s_resume : bool;
  s_seed : int;
  s_chaos : chaos;
}

let default_config =
  {
    s_socket = "occo.sock";
    s_cache_dir = ".occo-cache";
    s_jobs = 2;
    s_retries = 2;
    s_timeout_us = Some 60e6;
    s_memlimit_bytes = None;
    s_queue_cap = 64;
    s_degrade_watermark = 32;
    s_poison_threshold = 3;
    s_breaker_threshold = 10;
    s_breaker_cooldown_us = 2e6;
    s_journal = None;
    s_resume = false;
    s_seed = 0;
    s_chaos = no_chaos;
  }

(* ------------------------------------------------------------------ *)
(* Connections                                                        *)
(* ------------------------------------------------------------------ *)

type conn = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;  (** bytes read but not yet forming a full line *)
  mutable c_closed : bool;
}

let close_conn (c : conn) =
  if not c.c_closed then begin
    c.c_closed <- true;
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()
  end

(** Write one reply line; a vanished client (EPIPE, reset) is the
    client's problem, not the daemon's. *)
let send_line (c : conn) (j : Json.t) =
  if not c.c_closed then begin
    let s = Json.to_string j ^ "\n" in
    let b = Bytes.of_string s in
    match
      let rec go off =
        if off < Bytes.length b then
          go (off + Unix.write c.c_fd b off (Bytes.length b - off))
      in
      go 0
    with
    | () -> Obs.Metrics.incr_counter "serve.replies"
    | exception Unix.Unix_error _ ->
      Obs.Metrics.incr_counter "serve.replies_dropped";
      close_conn c
  end

(* ------------------------------------------------------------------ *)
(* Request lifecycle                                                  *)
(* ------------------------------------------------------------------ *)

type pending = {
  q_req : Protocol.request;
  q_key : string;  (** content hash of the source *)
  q_opts : string;  (** options tag (after any degrade decision) *)
  q_conn : conn;
  q_received_us : float;
  q_deadline_us : float;  (** absolute; [infinity] without a deadline *)
  q_attempt : int;
  q_crashes : int;  (** worker crashes so far — the poison counter *)
  q_degraded : bool;  (** forced onto the [-O0] path *)
  q_rng : Random.State.t;
}

(** The journal id of a request: stable across restarts (content hash,
    not arrival order), so the poison set survives [--resume]. *)
let journal_id (p : pending) = Printf.sprintf "req:%s:%s" p.q_key p.q_opts

(* ------------------------------------------------------------------ *)
(* The daemon                                                         *)
(* ------------------------------------------------------------------ *)

(** Run the service until it drains (SIGTERM, SIGINT or a [shutdown]
    request). Returns the number of requests served. Never raises for
    request-level trouble; socket-setup failures do raise. *)
let serve (cfg : config) : int =
  let cache = Cache.open_store cfg.s_cache_dir in
  (* Resume: the poison set is whatever the journal last said was
     poisoned; then compact, so the journal restarts from its
     snapshot rather than growing without bound across restarts. *)
  let poisoned : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  (match cfg.s_journal with
  | Some path when cfg.s_resume ->
    let last : (string, string) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun e -> Hashtbl.replace last e.Checkpoint.e_id e.Checkpoint.e_status)
      (Checkpoint.load path);
    Hashtbl.iter
      (fun id st -> if st = "poisoned" then Hashtbl.replace poisoned id ())
      last;
    let kept, dropped = Checkpoint.compact path in
    Obs.Interaction_log.record
      (Obs.Interaction_log.Service
         (Printf.sprintf "journal: compacted on resume (%d kept, %d dropped)"
            kept dropped))
  | _ -> ());
  let journal =
    Option.map
      (fun path -> Checkpoint.open_journal ~truncate:(not cfg.s_resume) path)
      cfg.s_journal
  in
  let journal_append (p : pending) ~status ~now =
    Option.iter
      (fun w ->
        Checkpoint.append w
          {
            Checkpoint.e_id = journal_id p;
            e_class = "compile";
            e_status = status;
            e_attempts = p.q_attempt + 1;
            e_elapsed_us = now -. p.q_received_us;
          })
      journal
  in
  (* The listening socket. A stale socket file from a crashed daemon
     would make bind fail; remove it first — flock-style exclusivity is
     the operator's concern, not this loop's. *)
  (try Unix.unlink cfg.s_socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.s_socket);
  Unix.listen listen_fd 16;
  (* Drain on SIGTERM/SIGINT: a flag the loop polls, not an exception —
     a signal must never tear the loop mid-reply. SIGPIPE is a write to
     a vanished client; send_line already handles the EPIPE. *)
  let draining = ref false in
  let old_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> draining := true))
  and old_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> draining := true))
  and old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let breaker =
    Breaker.create ~threshold:cfg.s_breaker_threshold
      ~cooldown_us:cfg.s_breaker_cooldown_us "serve.compile"
  in
  let conns : conn list ref = ref [] in
  let pool = Pool.create ~capacity:cfg.s_jobs in
  let served = ref 0 in
  let t_start = Obs.now_us () in
  let reply_error (p : pending) ~status ~(diag : Diag.t) ~now =
    journal_append p ~status ~now;
    send_line p.q_conn
      (Protocol.reply ~id:p.q_req.Protocol.rq_id ~status ~diag
         ~elapsed_us:(now -. p.q_received_us) ())
  in
  let reply_result (p : pending) (r : Engine.result) ~now =
    incr served;
    let status = if p.q_degraded then "degraded" else "ok" in
    journal_append p ~status ~now;
    send_line p.q_conn
      (Protocol.reply ~id:p.q_req.Protocol.rq_id ~status
         ~cache:r.Engine.er_cache ~degraded:p.q_degraded
         ~elapsed_us:(now -. p.q_received_us) ~summary:r.Engine.er_summary ());
    (* Chaos: corrupt the summary this miss just wrote, so the next
       identical request must take the quarantine-and-re-derive path. *)
    if cfg.s_chaos.ch_corrupt && r.Engine.er_cache = "miss" then
      ignore
        (Cache.corrupt_for_test cache ~key:p.q_key ~pass:"summary"
           ~opts:p.q_opts)
  in
  (* What runs in the forked worker. Chaos injections happen in the
     child — the daemon only ever observes their exit statuses, exactly
     as it would observe a real crash or hang. *)
  let job_thunk (p : pending) () : (Engine.result, Diag.t) result =
    let ch = cfg.s_chaos in
    if ch.ch_crash && (p.q_attempt = 0 || ch.ch_crash_forever) then
      Unix.kill (Unix.getpid ()) Sys.sigsegv;
    if ch.ch_hang && p.q_attempt = (if ch.ch_crash then 1 else 0) then
      while true do
        ignore (Sys.opaque_identity 0)
      done;
    Engine.compile_cached cache ~source:p.q_req.Protocol.rq_source
      ~optimize:(p.q_req.Protocol.rq_optimize && not p.q_degraded)
      ()
  in
  (* Queue one attempt of [p] on the pool: the breaker decides at launch
     time, and the end-to-end deadline both expires it while queued and
     caps its worker's watchdog. *)
  let rec submit ~ready_us (p : pending) =
    let admit ~now =
      Breaker.allow breaker ~now_us:now
      || begin
        Obs.Metrics.incr_counter "serve.shed.breaker";
        reply_error p ~status:"shed" ~now
          ~diag:
            (Diag.make ~phase:Diag.Service ~kind:Diag.Circuit_open
               "request shed: the compile circuit breaker is open");
        false
      end
    and on_expire ~now =
      Obs.Metrics.incr_counter "serve.deadline_exceeded";
      reply_error p ~status:"failed" ~now
        ~diag:
          (Diag.make ~phase:Diag.Service ~kind:Diag.Deadline_exceeded
             "request deadline passed while queued")
    in
    Pool.submit pool ~ready_us ~deadline_us:p.q_deadline_us
      ?timeout_us:cfg.s_timeout_us ?memlimit_bytes:cfg.s_memlimit_bytes
      ~label:("serve:" ^ String.sub p.q_key 0 8)
      ~attrs:
        [
          ("attempt", Json.num_of_int p.q_attempt);
          ("degraded", Json.Bool p.q_degraded);
        ]
      ~admit ~on_expire ~on_verdict:(conclude p) (job_thunk p)
  (* Decide what a worker verdict leads to: reply, retry, degrade,
     poison. *)
  and conclude (p : pending) ~now (v : Engine.result Worker.verdict) =
    Breaker.record breaker ~now_us:now
      ~ok:(match v with Worker.Returned (Ok _) -> true | _ -> false);
    (* [retry] requeues exactly the pending it is given — the caller
       threads accumulated state (the crash counter) through it. *)
    let retry ?degraded (p : pending) =
      let degraded = Option.value degraded ~default:p.q_degraded in
      let delay =
        Backoff.delay_us Backoff.default ~rng:p.q_rng
          ~attempt:(p.q_attempt + 1)
      in
      Obs.Metrics.incr_counter "serve.retries";
      submit ~ready_us:(now +. delay)
        {
          p with
          q_attempt = p.q_attempt + 1;
          q_degraded = degraded;
          q_opts =
            (if degraded then Engine.options_tag ~optimize:false else p.q_opts);
        }
    in
    (* A worker that died or hung: retry, then one last lifeline at
       -O0, then give up with [status]/[diag]. *)
    let retry_or_degrade p ~status ~diag =
      if p.q_attempt < cfg.s_retries then retry p
      else if not p.q_degraded then begin
        Obs.Metrics.incr_counter "serve.degraded";
        retry ~degraded:true p
      end
      else reply_error p ~status ~now ~diag
    in
    match v with
    | Worker.Returned (Ok r) -> reply_result p r ~now
    | Worker.Returned (Error d) ->
      if Diag.is_transient d.Diag.kind && p.q_attempt < cfg.s_retries then
        retry p
      else reply_error p ~status:"failed" ~diag:d ~now
    | Worker.Crashed _ | Worker.Pipe_write_failed | Worker.Oom -> (
      let crashes = p.q_crashes + 1 in
      Obs.Metrics.incr_counter "serve.crashes";
      let p = { p with q_crashes = crashes } in
      if crashes >= cfg.s_poison_threshold then begin
        (* Poison: quarantine the request itself. Journaled, so the
           quarantine survives a restart; repeats are rejected at
           admission without ever reaching a worker again. *)
        Hashtbl.replace poisoned (journal_id p) ();
        Obs.Metrics.incr_counter "serve.poisoned";
        Format.eprintf
          "occo serve: poisoned request %s after %d worker crashes@."
          p.q_key crashes;
        reply_error p ~status:"poisoned" ~now
          ~diag:
            (Diag.make ~phase:Diag.Service ~kind:Diag.Poisoned
               ~context:[ ("crashes", string_of_int crashes) ]
               "request crashed %d workers and was quarantined" crashes)
      end
      else
        retry_or_degrade p ~status:"crashed"
          ~diag:
            (Diag.make ~phase:Diag.Service ~kind:Diag.Job_crashed
               "worker died %d times; degraded fallback crashed too" crashes))
    | Worker.Timed_out ->
      if now >= p.q_deadline_us then begin
        Obs.Metrics.incr_counter "serve.deadline_exceeded";
        reply_error p ~status:"failed" ~now
          ~diag:
            (Diag.make ~phase:Diag.Service ~kind:Diag.Deadline_exceeded
               "request deadline passed while compiling")
      end
      else
        retry_or_degrade p ~status:"timeout"
          ~diag:
            (Diag.make ~phase:Diag.Service ~kind:Diag.Job_timeout
               "worker exceeded its wall-clock limit on every attempt")
  in
  (* Admission: every request gets exactly one reply, and the expensive
     ones only get as far as their failure mode allows. *)
  let admit (c : conn) (line : string) ~now =
    Obs.Metrics.incr_counter "serve.requests";
    match Protocol.request_of_line line with
    | Error why ->
      send_line c
        (Protocol.reply ~id:"?" ~status:"failed"
           ~diag:
             (Diag.make ~phase:Diag.Service ~kind:Diag.Syntax_error
                "bad request: %s" why)
           ())
    | Ok req -> (
      match req.Protocol.rq_op with
      | Protocol.Ping ->
        send_line c (Protocol.reply ~id:req.Protocol.rq_id ~status:"pong" ())
      | Protocol.Stats ->
        send_line c
          (Json.Obj
             [
               ("id", Json.Str req.Protocol.rq_id);
               ("status", Json.Str "stats");
               ("queue_depth", Json.num_of_int (Pool.queued pool));
               ("inflight", Json.num_of_int (Pool.running pool));
               ("served", Json.num_of_int !served);
               ("metrics", Obs.Metrics.dump_json ());
             ])
      | Protocol.Shutdown ->
        draining := true;
        send_line c (Protocol.reply ~id:req.Protocol.rq_id ~status:"draining" ())
      | Protocol.Compile ->
        let degraded =
          (* Overload watermark: new optimized work drops to the -O0
             fast path before the queue fills enough to shed. *)
          req.Protocol.rq_optimize
          && Pool.queued pool >= cfg.s_degrade_watermark
        in
        let optimize = req.Protocol.rq_optimize && not degraded in
        let key = Cache.key_of ~source:req.Protocol.rq_source in
        let opts = Engine.options_tag ~optimize in
        let p =
          {
            q_req = req;
            q_key = key;
            q_opts = opts;
            q_conn = c;
            q_received_us = now;
            q_deadline_us =
              (match req.Protocol.rq_deadline_ms with
              | Some ms -> now +. (float_of_int ms *. 1e3)
              | None -> infinity);
            q_attempt = 0;
            q_crashes = 0;
            q_degraded = degraded;
            q_rng = Random.State.make [| cfg.s_seed; Hashtbl.hash key |];
          }
        in
        if !draining then
          reply_error p ~status:"shed" ~now
            ~diag:
              (Diag.make ~phase:Diag.Service ~kind:Diag.Overloaded
                 "service is draining; not accepting new work")
        else if Hashtbl.mem poisoned (journal_id p) then begin
          Obs.Metrics.incr_counter "serve.poisoned_rejects";
          reply_error p ~status:"poisoned" ~now
            ~diag:
              (Diag.make ~phase:Diag.Service ~kind:Diag.Poisoned
                 "request is quarantined: it previously crashed its workers")
        end
        else if Pool.queued pool >= cfg.s_queue_cap then begin
          Obs.Metrics.incr_counter "serve.shed.overload";
          reply_error p ~status:"shed" ~now
            ~diag:
              (Diag.make ~phase:Diag.Service ~kind:Diag.Overloaded
                 "queue full (%d); request shed" cfg.s_queue_cap)
        end
        else begin
          if degraded then Obs.Metrics.incr_counter "serve.degraded";
          (* Warm fast path: a verified summary answers in-process —
             no fork, no interning, no queue. *)
          match
            Engine.lookup_summary cache ~source:req.Protocol.rq_source
              ~optimize
          with
          | Some summary ->
            incr served;
            Obs.Metrics.incr_counter "serve.cache.hit";
            journal_append p ~status:"ok" ~now;
            send_line c
              (Protocol.reply ~id:req.Protocol.rq_id ~status:"ok" ~cache:"hit"
                 ~degraded ~elapsed_us:(Obs.now_us () -. now) ~summary ())
          | None -> submit ~ready_us:now p
        end)
  in
  (* Pull complete lines out of a connection's buffer. *)
  let drain_lines (c : conn) ~now =
    let data = Buffer.contents c.c_buf in
    let rec go start =
      match String.index_from_opt data start '\n' with
      | None ->
        Buffer.clear c.c_buf;
        Buffer.add_substring c.c_buf data start (String.length data - start)
      | Some nl ->
        let line = String.sub data start (nl - start) in
        if String.trim line <> "" then admit c line ~now;
        go (nl + 1)
    in
    go 0
  in
  let read_conn (c : conn) ~now =
    let chunk = Bytes.create 65536 in
    match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
    | 0 -> close_conn c
    | n ->
      Buffer.add_subbytes c.c_buf chunk 0 n;
      drain_lines c ~now
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn c
  in
  (* ---------------- the loop ---------------- *)
  let loop () =
    while not (!draining && Pool.idle pool) do
      Obs.Metrics.set_gauge "serve.queue_depth"
        (float_of_int (Pool.queued pool));
      Obs.Metrics.set_gauge "serve.inflight"
        (float_of_int (Pool.running pool));
      let fds () =
        (if !draining then [] else [ listen_fd ])
        @ List.filter_map
            (fun c -> if c.c_closed then None else Some c.c_fd)
            !conns
      in
      List.iter
        (fun fd ->
          if fd = listen_fd then begin
            match Unix.accept listen_fd with
            | cfd, _ ->
              conns :=
                { c_fd = cfd; c_buf = Buffer.create 256; c_closed = false }
                :: !conns
            | exception Unix.Unix_error _ -> ()
          end
          else
            match List.find_opt (fun c -> (not c.c_closed) && c.c_fd = fd) !conns with
            | Some c -> read_conn c ~now:(Obs.now_us ())
            | None -> ())
        (Pool.poll pool ~fds ~max_wait_s:0.25 ());
      conns := List.filter (fun c -> not c.c_closed) !conns
    done
  in
  let cleanup () =
    (* No worker outlives the daemon; every journal line already hit
       the disk. Compact so the next incarnation loads a snapshot. *)
    Pool.shutdown pool;
    Option.iter Checkpoint.close journal;
    Option.iter (fun p -> ignore (Checkpoint.compact p)) cfg.s_journal;
    List.iter close_conn !conns;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink cfg.s_socket with Unix.Unix_error _ -> ());
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigpipe old_pipe
  in
  Fun.protect ~finally:cleanup loop;
  let elapsed_s = (Obs.now_us () -. t_start) /. 1e6 in
  if !served > 0 && elapsed_s > 0. then
    Obs.Metrics.set_gauge "serve.jobs_per_s" (float_of_int !served /. elapsed_s);
  Obs.Metrics.set_gauge "serve.queue_depth" 0.;
  Obs.Metrics.set_gauge "serve.inflight" 0.;
  !served

(* ------------------------------------------------------------------ *)
(* Client                                                             *)
(* ------------------------------------------------------------------ *)

(** Connect, send one request line, read one reply line ([occo
    request] and the tests both go through this). [connect_wait_us]
    retries the connect while the daemon is still starting up. *)
let request ?(connect_wait_us = 5e6) ~(socket : string)
    (req : Protocol.request) : (Json.t, string) result =
  let deadline = Obs.now_us () +. connect_wait_us in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Ok fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Obs.now_us () < deadline ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.05;
      connect ()
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message e)
  in
  match connect () with
  | Error _ as e -> e
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let line = Json.to_string (Protocol.request_to_json req) ^ "\n" in
        let b = Bytes.of_string line in
        let rec put off =
          if off < Bytes.length b then
            put (off + Unix.write fd b off (Bytes.length b - off))
        in
        match put 0 with
        | exception Unix.Unix_error (e, _, _) ->
          Error ("write: " ^ Unix.error_message e)
        | () -> (
          let buf = Buffer.create 256 in
          let chunk = Bytes.create 4096 in
          let rec read_line () =
            match
              String.index_opt (Buffer.contents buf) '\n'
            with
            | Some i -> Ok (String.sub (Buffer.contents buf) 0 i)
            | None -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> Error "daemon closed the connection without replying"
              | n ->
                Buffer.add_subbytes buf chunk 0 n;
                read_line ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ()
              | exception Unix.Unix_error (e, _, _) ->
                Error ("read: " ^ Unix.error_message e))
          in
          match read_line () with
          | Error _ as e -> e
          | Ok line -> (
            match Json.parse_opt line with
            | Some j -> Ok j
            | None -> Error "daemon replied with malformed JSON")))
