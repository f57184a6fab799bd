(** What every workload shares: its configuration, its result, the
    statistics, and the timing scaffolding. *)

module Json = Obs.Json

let now = Obs.now_us

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;  (** the per-layer run *)
  counts_only : bool;  (** the determinism self-check's second process *)
  out_dir : string;  (** traces and the daemon's store go here *)
}

type outcome = {
  attempted : int;
  failed : int;
  failures : string list;  (** the first few, for stderr *)
  metrics : (string * float * string) list;  (** name, value, unit *)
  counts : (string * float) list;  (** exact counts for the self-check *)
  info : (string * Json.t) list;  (** recorded alongside the result *)
}

type result = Counts of (string * float) list | Done of outcome

(** Quantile with linear interpolation between order statistics. *)
let quantile (xs : float list) q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let share a b = float_of_int a /. float_of_int (max 1 b)

(** Peak resident set of a process, in MB. *)
let peak_rss_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
        | None -> nan
      in
      go ())

(** [f ()] and the seconds it took. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) /. 1e6)

(* ------------------------------------------------------------------ *)
(* Machine-speed calibration                                          *)
(* ------------------------------------------------------------------ *)

(* The development machine's speed drifts by 20-30% over seconds to
   minutes, and every timing drifts with it. A calibration that does the
   same kind of work as the interpreters, a fixed toy interpreter over
   string-keyed maps, follows that drift (correlation 0.74 over 1.6 s
   windows), so the end-to-end timings are scaled by it: a timing is
   reported as it would read at the calibration's reference speed. Over
   whole runs it narrows the spread of every scaled metric, serve_mixed's
   request latencies included (README.md, Measured spreads). This code is
   part of the benchmark, not of the program, so no change to the
   program moves it. *)

module Env = Map.Make (String)

type cexpr = Num of int | Var of string | Add of cexpr * cexpr | Mul of cexpr * cexpr | Lt of cexpr * cexpr
type cstmt = Set of string * cexpr | While of cexpr * cstmt list

let rec ceval env = function
  | Num n -> n
  | Var x -> Env.find x env
  | Add (a, b) -> ceval env a + ceval env b
  | Mul (a, b) -> ceval env a * ceval env b land 0xffff
  | Lt (a, b) -> if ceval env a < ceval env b then 1 else 0

let rec cexec env = function
  | Set (x, e) -> Env.add x (ceval env e) env
  | While (c, body) as w -> if ceval env c <> 0 then cexec (List.fold_left cexec env body) w else env

let calibration_program =
  [ Set ("i", Num 0); Set ("a", Num 1); Set ("b", Num 2);
    While
      ( Lt (Var "i", Num 10000),
        [ Set ("a", Add (Mul (Var "a", Num 3), Var "b")); Set ("b", Add (Var "a", Var "i"));
          Set ("c", Add (Var "b", Num 7)); Set ("i", Add (Var "i", Num 1)) ] ) ]

(** Median time of five runs of the calibration, in µs. *)
let calibration_us () =
  median
    (List.init 5 (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (List.fold_left cexec Env.empty calibration_program));
         now () -. t0))

(** The calibration's time at the reference speed: its typical median
    on the 2-vCPU development machine. *)
let reference_us = 3000.

(** The factor that takes a timing to the reference speed, and the
    factors used so far. *)
let scale = ref 1.
let scales = ref []
let next_calibration = ref neg_infinity

(** Calibrate again if a second has passed since the last time. *)
let calibrate_if_due () =
  if now () >= !next_calibration then begin
    (* The first calibration of a process runs on memory it touches for
       the first time and read about 1.5 times slow, which scaled the
       first set-up of every run down by as much. *)
    if !scales = [] then ignore (calibration_us ());
    scale := reference_us /. calibration_us ();
    scales := !scale :: !scales;
    next_calibration := now () +. 1e6
  end

(** Run [op] until [seconds] have passed; the elapsed seconds. *)
let loop ~seconds (op : unit -> unit) =
  let t0 = now () in
  let t_end = t0 +. (seconds *. 1e6) in
  while now () < t_end do
    op ()
  done;
  (now () -. t0) /. 1e6

(** Alternate untraced and traced windows of [window_s] over [seconds],
    so both see the same machine; [op traced] runs one operation.
    Returns the seconds spent untraced and traced. *)
let alternating ~seconds ~window_s (op : bool -> unit) =
  let t_end = now () +. (seconds *. 1e6) in
  let spent = [| 0.; 0. |] in
  let traced = ref false in
  while now () < t_end do
    let t = !traced in
    Layer.tracing := t;
    Obs.enabled := t;
    let s = loop ~seconds:(Float.min window_s ((t_end -. now ()) /. 1e6)) (fun () -> op t) in
    Layer.tracing := false;
    Obs.enabled := false;
    spent.(Bool.to_int t) <- spent.(Bool.to_int t) +. s;
    traced := not t
  done;
  (spent.(0), spent.(1))

(** Run [f] traced, on a clean trace; write what it recorded to
    [out_dir] as a Chrome trace, and return it with [f]'s result. *)
let traced_export (cfg : config) f =
  Obs.Trace.reset ();
  Layer.tracing := true;
  Obs.enabled := true;
  let r =
    Fun.protect f ~finally:(fun () ->
        Layer.tracing := false;
        Obs.enabled := false)
  in
  let roots = Obs.Trace.roots () in
  (try
     Obs.Trace.export_chrome
       (Filename.concat cfg.out_dir
          (Printf.sprintf "trace-%s-%d.json" cfg.workload cfg.seed))
   with Sys_error _ -> ());
  Obs.Trace.reset ();
  Obs.Interaction_log.reset ();
  (r, roots)

(* ------------------------------------------------------------------ *)
(* Layers a workload does not measure                                 *)
(* ------------------------------------------------------------------ *)

(** Every workload reports every per-layer metric. The verification
    layers are measured where the benchmark verifies programs in its own
    process (verify_corpus, big_functions), the service layers where it
    drives the compile service (serve_mixed); on the other workload each
    reads 0: no calls, so no time, steps or words. *)
let absent metrics = List.map (fun (name, unit) -> (name, 0., unit)) metrics

let verification_layers =
  [ ("cfrontend.parse_ms", "ms") ]
  @ List.concat_map
      (fun p -> [ (Printf.sprintf "pass.%s.self_ms" p, "ms"); (Printf.sprintf "pass.%s.alloc_words" p, "words") ])
      Layer.passes
  @ [ ("pass.Allocation.size_exponent", "ratio"); ("pass.AllocCheck.size_exponent", "ratio") ]
  @ List.concat_map
      (fun l ->
        [ (Printf.sprintf "interp.%s.self_ms" l, "ms"); (Printf.sprintf "interp.%s.steps" l, "count");
          (Printf.sprintf "interp.%s.alloc_words" l, "words") ])
      Layer.interpreters
  @ [ ("coexec.ms", "ms"); ("hcomp.ms", "ms"); ("verdicts.inconclusive_share", "ratio") ]

let service_layers =
  [ ("engine.hit_us", "us"); ("engine.miss_ms", "ms"); ("cache.get_us", "us"); ("cache.put_us", "us");
    ("serve.overhead_ms.hit", "ms"); ("serve.overhead_ms.miss", "ms"); ("serve.cache.hit", "count");
    ("serve.cache.miss", "count"); ("serve.cache.writes", "count"); ("request_ms.hit.p90", "ms");
    ("request_ms.miss.p90", "ms") ]

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755
