(** The serve_mixed workload: one closed-loop client of a real
    [Service.Serve] daemon running in its own process. The client plays
    the [occo request] shape: one connection per request, and it waits
    for each reply before sending the next request. Every
    [miss_every]-th request carries a new source, which the daemon
    compiles in a forked worker and writes to its cache; the others
    repeat an earlier source, which the daemon answers from its cache
    without forking. *)

open Util
module Serve = Service.Serve
module Protocol = Service.Protocol

(** One request in [miss_every] is new (a miss); hit:miss is 3:1. The
    ratio is an assumption, not measured traffic: the repository has no
    record of what users send (README.md). *)
let miss_every = 4

(** Sources whose compile results are checked against an in-process
    compile, and over which the static code size is taken: over 200 of
    them, code_instrs_per_stmt spread by 0.032 across five seeds. *)
let checked = 600

(** The [j]-th new source of the stream. The trailing comment keeps
    every new source distinct, as distinct files are. *)
let source ~seed j =
  (Corpus.generated ~seed (1_000_000 + j)).src ^ Printf.sprintf "\n/* request %d */\n" j

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type daemon = { pid : int; dir : string; socket : string }

let live : daemon list ref = ref []

let compile_request ~id ~source =
  {
    Protocol.rq_id = id;
    rq_op = Protocol.Compile;
    rq_source = source;
    rq_optimize = true;
    rq_deadline_ms = None;
  }

let op_request op = { (compile_request ~id:"bench" ~source:"") with Protocol.rq_op = op }

(** Connect until the daemon accepts, without [Serve.request]'s 50 ms
    retry sleep. *)
let wait_ready (d : daemon) =
  let deadline = now () +. 30e6 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.socket) with
    | () -> Unix.close fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ -> failwith "the daemon exited during start-up");
      if now () > deadline then failwith "the daemon did not start";
      Unix.sleepf 0.00005;
      go ()
  in
  go ()

(** The daemon's side of {!start}: what [occo serve] runs, with its
    metrics on; with [obs] off, without them, for the traced run's
    untraced epochs. *)
let serve ~obs ~socket ~cache_dir ~seed =
  Obs.reset_all ();
  Obs.enabled := obs;
  ignore
    (Serve.serve
       { Serve.default_config with Serve.s_socket = socket; s_cache_dir = cache_dir; s_seed = seed })

(** Start a daemon serving from a fresh store under [base]: this program
    again, in a new process that runs only {!serve}, so the daemon
    starts as small as [occo serve] does. *)
let start ~obs ~base ~seed : daemon =
  let dir = Filename.concat base (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "serve.sock" in
  flush_all ();
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve"; socket; "--cache"; Filename.concat dir "cache";
         "--seed"; string_of_int seed; "--serve-obs"; (if obs then "1" else "0") |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let d = { pid; dir; socket } in
  live := d :: !live;
  wait_ready d;
  d

(** Ask the daemon to drain, reap it, and remove its store and socket. *)
let stop (d : daemon) =
  ignore (Serve.request ~connect_wait_us:0. ~socket:d.socket (op_request Protocol.Shutdown));
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun d' -> d'.pid <> d.pid) !live;
  rm_rf d.dir

let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
          try rm_rf d.dir with Unix.Unix_error _ | Sys_error _ -> ())
        !live)

(** The type of the file system holding [dir]: that of the mount point
    with the longest prefix of its absolute path. *)
let filesystem_of dir =
  let abs = if Filename.is_relative dir then Filename.concat (Sys.getcwd ()) dir else dir in
  match In_channel.with_open_text "/proc/mounts" In_channel.input_all with
  | exception Sys_error _ -> "?"
  | mounts ->
    snd
      (List.fold_left
         (fun ((best, _) as acc) line ->
           match String.split_on_char ' ' line with
           | _ :: mnt :: fs :: _
             when String.starts_with ~prefix:mnt abs && String.length mnt > String.length best ->
             (mnt, fs)
           | _ -> acc)
         ("", "?")
         (String.split_on_char '\n' mounts))

(* ------------------------------------------------------------------ *)
(* The request stream                                                 *)
(* ------------------------------------------------------------------ *)

(** Requests per daemon. The daemon keeps the span forests of its
    workers and slows down as they accumulate, so every daemon serves
    the same number of requests and latencies are compared at equal
    ages. *)
let epoch_requests = 1000

let news_per_epoch = epoch_requests / miss_every

(** Request [r] of epoch [e]: [`Miss j] sends new source [j], [`Hit j]
    repeats one of the epoch's earlier sources, uniformly. *)
let next ~rand e r =
  let first = e * news_per_epoch in
  if r mod miss_every = 0 then `Miss (first + (r / miss_every))
  else `Hit (first + Random.State.int rand ((r / miss_every) + 1))

type sacc = {
  mutable hit_ms : float list;  (** as measured *)
  mutable miss_ms : float list;
  mutable hit_scaled_ms : float list;  (** scaled to the reference speed *)
  mutable miss_scaled_ms : float list;
  mutable miss_stmts : int;  (** Clight statements of the sources compiled by misses *)
  mutable ops : int;
  mutable failed : int;
  mutable failures : string list;
}

let sacc () =
  { hit_ms = []; miss_ms = []; hit_scaled_ms = []; miss_scaled_ms = []; miss_stmts = 0; ops = 0;
    failed = 0; failures = [] }

let fail (a : sacc) msg =
  a.failed <- a.failed + 1;
  if List.length a.failures < 5 then a.failures <- msg :: a.failures

(** Send one request and check its reply: status ok, served from the
    cache tier the stream predicts, and (for repeats) the same summary
    the miss produced. *)
let request (a : sacc) ~socket ~(source : int -> string) ~(summaries : (int, string) Hashtbl.t) r
    kind =
  let j, want = match kind with `Miss j -> (j, "miss") | `Hit j -> (j, "hit") in
  let req = compile_request ~id:(string_of_int r) ~source:(source j) in
  let reply, s = timed (fun () -> Layer.request ~socket req) in
  let ms = s *. 1e3 and scaled_ms = s *. !scale *. 1e3 in
  a.ops <- a.ops + 1;
  match reply with
  | Error e -> fail a (Printf.sprintf "request %d: %s" r e)
  | Ok j_reply -> (
    let field k = Protocol.reply_field j_reply k in
    let summary = Option.map Json.to_string (Json.member "summary" j_reply) in
    match (field "status", field "cache", summary) with
    | Some "ok", Some tier, Some s when tier = want -> (
      if want = "miss" then begin
        a.miss_ms <- ms :: a.miss_ms;
        a.miss_scaled_ms <- scaled_ms :: a.miss_scaled_ms;
        Hashtbl.replace summaries j s
      end
      else begin
        a.hit_ms <- ms :: a.hit_ms;
        a.hit_scaled_ms <- scaled_ms :: a.hit_scaled_ms
      end;
      match Hashtbl.find_opt summaries j with
      | Some s' when s' <> s -> fail a (Printf.sprintf "request %d: summary changed" r)
      | _ -> ())
    | status, tier, _ ->
      fail a
        (Printf.sprintf "request %d: status %s, cache %s, expected %s" r
           (Option.value ~default:"-" status) (Option.value ~default:"-" tier) want))

(** The served summaries of the checked sources must match an
    in-process compile of the same source. *)
let check_summaries (a : sacc) ~(facts : Verify.facts option array) summaries =
  Hashtbl.iter
    (fun j s ->
      if j < Array.length facts then
        let num k =
          Option.bind (Json.parse_opt s) (fun js -> Option.bind (Json.member k js) Json.to_num)
        in
        match facts.(j) with
        | None -> fail a (Printf.sprintf "source %d does not compile in-process" j)
        | Some (f : Verify.facts) ->
          if
            num "functions" <> Some (float_of_int f.functions)
            || num "rtl_size" <> Some (float_of_int f.rtl_size)
            || num "asm_size" <> Some (float_of_int f.asm_size)
          then fail a (Printf.sprintf "source %d: served summary differs from the compiler's" j))
    summaries

(* ------------------------------------------------------------------ *)
(* The in-process replay (traced run)                                 *)
(* ------------------------------------------------------------------ *)

(** The first epoch's requests through [Service.Engine.compile_cached]
    in this process, with [Service.Cache.get]/[put] timed alongside. *)
let replay ~base ~seed =
  let dir = Filename.concat base (Printf.sprintf "replay-%d" (Unix.getpid ())) in
  rm_rf dir;
  let cache = Service.Cache.open_store dir in
  let rand = Random.State.make [| seed; 31337; 0 |] in
  let hit_us = ref [] and miss_ms = ref [] and get_us = ref [] and put_us = ref [] in
  let stmts = ref 0 in
  let w0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).Gc.major_collections in
  for r = 0 to epoch_requests - 1 do
    let kind = next ~rand 0 r in
    let src = source ~seed (match kind with `Miss j | `Hit j -> j) in
    let res, dt = timed (fun () -> Layer.engine cache ~source:src) in
    (match (kind, res) with
    | `Miss _, Ok { er_cache = "miss"; _ } ->
      miss_ms := (dt *. 1e3) :: !miss_ms;
      stmts := !stmts + (Driver.Sizes.clight (Layer.parse src)).size
    | `Hit _, Ok { er_cache = "hit"; _ } -> hit_us := (dt *. 1e6) :: !hit_us
    | _ -> ());
    let key = Service.Cache.key_of ~source:src in
    let _, dt = timed (fun () -> Layer.cache_get cache ~key ~pass:"summary" ~opts:"O2") in
    get_us := (dt *. 1e6) :: !get_us;
    let (), dt = timed (fun () -> Layer.cache_put cache ~key ~pass:"bench" ~opts:"O2" ~payload:src) in
    put_us := (dt *. 1e6) :: !put_us
  done;
  let words = Gc.minor_words () -. w0 in
  let majors = (Gc.quick_stat ()).Gc.major_collections - g0 in
  rm_rf dir;
  (!hit_us, !miss_ms, !get_us, !put_us, words /. float_of_int (max 1 !stmts), majors)

(* ------------------------------------------------------------------ *)
(* The workload                                                       *)
(* ------------------------------------------------------------------ *)

let run (cfg : config) : result =
  let seed = cfg.seed and base = cfg.out_dir in
  let facts = Array.init checked (fun j -> Verify.facts (source ~seed j)) in
  let sum f = Array.fold_left (fun acc x -> match x with Some x -> acc + f x | None -> acc) 0 facts in
  let counts =
    [
      ( "code_instrs_per_stmt",
        share (sum (fun (f : Verify.facts) -> f.asm_size)) (sum (fun (f : Verify.facts) -> f.stmts)) );
      ("asm_instrs_retired", float_of_int (sum (fun (f : Verify.facts) -> f.retired)));
    ]
  in
  if cfg.counts_only then Counts counts
  else begin
    let plain = sacc () and traced = sacc () in
    let summaries = Hashtbl.create 1024 in
    let setups = ref [] and rss = ref [] and counters = Hashtbl.create 8 in
    let spent = [| 0.; 0. |] in
    (* Whole epochs until the time is up. In the traced run every other
       epoch is traced: its daemon runs with its metrics and spans on, as
       [occo serve] always does, and the client records a span per
       request; the other epochs run both without them. *)
    let t_end = now () +. (cfg.seconds *. 1e6) in
    let e = ref 0 in
    while now () < t_end || (cfg.trace && !e < 2) do
      let t = cfg.trace && !e mod 2 = 1 in
      let obs = t || not cfg.trace in
      (* An epoch's set-up: drawing its new sources, and starting its
         daemon. *)
      let first = !e * news_per_epoch in
      calibrate_if_due ();
      let (sources, d), setup_s =
        timed (fun () ->
            let sources = Array.init news_per_epoch (fun m -> source ~seed (first + m)) in
            (sources, start ~obs ~base ~seed))
      in
      setups := (setup_s *. !scale, setup_s) :: !setups;
      let a = if t then traced else plain in
      let rand = Random.State.make [| seed; 31337; !e |] in
      Layer.tracing := t;
      Obs.enabled := t;
      let (), s =
        timed (fun () ->
            for r = 0 to epoch_requests - 1 do
              calibrate_if_due ();
              request a ~socket:d.socket
                ~source:(fun j -> sources.(j - first))
                ~summaries r (next ~rand !e r)
            done)
      in
      Layer.tracing := false;
      Obs.enabled := false;
      Obs.Trace.reset ();
      spent.(Bool.to_int t) <- spent.(Bool.to_int t) +. s;
      (* The statements the epoch's misses compiled, counted after it. *)
      Array.iteri
        (fun m src ->
          if Hashtbl.mem summaries (first + m) then
            a.miss_stmts <- a.miss_stmts + (Driver.Sizes.clight (Layer.parse src)).size)
        sources;
      rss := peak_rss_mb d.pid :: !rss;
      (* A daemon without metrics has no counters to report. *)
      if obs then begin
        match Serve.request ~connect_wait_us:0. ~socket:d.socket (op_request Protocol.Stats) with
        | Ok j ->
          Option.iter
            (function
              | Json.Obj kvs ->
                List.iter
                  (fun (k, v) ->
                    let c = Layer.cell counters k 0. in
                    c := !c +. Option.value ~default:0. (Json.to_num v))
                  kvs
              | _ -> ())
            (Option.bind (Json.member "metrics" j) (Json.member "counters"))
        | Error msg -> fail a ("stats: " ^ msg)
      end;
      stop d;
      incr e
    done;
    check_summaries plain ~facts summaries;
    let failed = plain.failed + traced.failed in
    let attempted = plain.ops + traced.ops in
    let sum = List.fold_left ( +. ) 0. in
    (* The end-to-end metrics of a request stream: every request is an
       operation, and a miss, which the daemon compiles, is a compile. *)
    let e2e ~setup ~hit ~miss =
      let all = hit @ miss in
      [
        ("setup_s", median setup, "s");
        ("latency_ms.p50", median all, "ms");
        ("latency_ms.p90", quantile all 0.9, "ms");
        ("ops_per_s", float_of_int (List.length all) /. (sum all /. 1e3), "1/s");
        ("compile_ms.p50", median miss, "ms");
        ("compile_ms.p90", quantile miss 0.9, "ms");
        ("compile_stmts_per_s", float_of_int plain.miss_stmts /. (sum miss /. 1e3), "1/s");
      ]
    in
    let metrics =
      if not cfg.trace then
        e2e ~setup:(List.map fst !setups) ~hit:plain.hit_scaled_ms ~miss:plain.miss_scaled_ms
        @ [
            ("code_instrs_per_stmt", List.assoc "code_instrs_per_stmt" counts, "ratio");
            ("peak_rss_mb", median !rss, "MB");
          ]
      else begin
        let (hit_us, miss_ms, get_us, put_us, words_per_stmt, majors), _ =
          traced_export cfg (fun () -> replay ~base ~seed)
        in
        let engine_hit_us = median hit_us and engine_miss_ms = median miss_ms in
        let counter k = match Hashtbl.find_opt counters k with Some c -> !c | None -> 0. in
        [
          ("engine.hit_us", engine_hit_us, "us");
          ("engine.miss_ms", engine_miss_ms, "ms");
          ("cache.get_us", median get_us, "us");
          ("cache.put_us", median put_us, "us");
          (* The traced epochs' daemons run as [occo serve] does. *)
          ("serve.overhead_ms.hit", median traced.hit_ms -. (engine_hit_us /. 1e3), "ms");
          ("serve.overhead_ms.miss", median traced.miss_ms -. engine_miss_ms, "ms");
          ("serve.cache.hit", counter "serve.cache.hit", "count");
          ("serve.cache.miss", counter "serve.cache.miss", "count");
          ("serve.cache.writes", counter "serve.cache.writes", "count");
          ("gc.minor_words_per_stmt", words_per_stmt, "words");
          ("gc.major_collections", float_of_int majors, "count");
          ( "obs.trace_overhead_share",
            1. -. (float_of_int traced.ops /. spent.(1) /. (float_of_int plain.ops /. spent.(0))),
            "ratio" );
          ("ops_failed_share", share failed attempted, "ratio");
          ("asm_instrs_retired", List.assoc "asm_instrs_retired" counts, "count");
          (* The tails follow the host's scheduling of the three processes
             more than the program: see README.md. *)
          ("request_ms.hit.p90", quantile traced.hit_ms 0.9, "ms");
          ("request_ms.miss.p90", quantile traced.miss_ms 0.9, "ms");
        ]
        @ absent verification_layers
      end
    in
    Done
      {
        attempted;
        failed;
        failures = plain.failures @ traced.failures;
        metrics;
        counts;
        info =
          [ ("cache_filesystem", Json.Str (filesystem_of base)); ("epochs", Json.num_of_int !e) ]
          @
          if cfg.trace then []
          else
            [
              ( "unscaled",
                Json.Obj
                  (List.map
                     (fun (k, v, _) -> (k, Json.Num v))
                     (e2e ~setup:(List.map snd !setups) ~hit:plain.hit_ms ~miss:plain.miss_ms)) );
              ("request_ms.hit.p50", Json.Num (median plain.hit_scaled_ms));
              ("request_ms.miss.p50", Json.Num (median plain.miss_scaled_ms));
            ];
      }
  end
