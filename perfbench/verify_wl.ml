(** The verification workloads, verify_corpus and big_functions: a
    closed loop that verifies one program after another, cycling
    through the workload's inputs in a seeded order. *)

open Util

type item = Prog of Corpus.program | Pair of Corpus.pair

let item_name = function Prog p -> p.name | Pair p -> p.pair_name

type acc = {
  mutable verify_ms : float list;
  mutable compile_ms : float list;
  mutable stmts : int;
  mutable compile_s : float;
  mutable busy_s : float;
  (* The same, as measured, without the speed scale. *)
  mutable raw_verify_ms : float list;
  mutable raw_compile_ms : float list;
  mutable raw_compile_s : float;
  mutable raw_busy_s : float;
  mutable ops : int;
  mutable failed : int;
  mutable inconclusive : int;
  mutable failures : string list;
}

let acc () =
  { verify_ms = []; compile_ms = []; stmts = 0; compile_s = 0.; busy_s = 0.; raw_verify_ms = [];
    raw_compile_ms = []; raw_compile_s = 0.; raw_busy_s = 0.; ops = 0; failed = 0; inconclusive = 0;
    failures = [] }

(** Verify one input, with its times scaled to the reference speed. *)
let verify (a : acc) item : Verify.result =
  let r, raw_s = timed (fun () -> match item with Prog p -> Verify.program p | Pair p -> Verify.pair p) in
  let s = raw_s *. !scale in
  a.ops <- a.ops + 1;
  a.busy_s <- a.busy_s +. s;
  a.verify_ms <- (s *. 1e3) :: a.verify_ms;
  a.raw_busy_s <- a.raw_busy_s +. raw_s;
  a.raw_verify_ms <- (raw_s *. 1e3) :: a.raw_verify_ms;
  (match item with
  | Prog _ ->
    let raw_s = r.compile_us /. 1e6 in
    let compile_s = raw_s *. !scale in
    a.compile_ms <- (compile_s *. 1e3) :: a.compile_ms;
    a.compile_s <- a.compile_s +. compile_s;
    a.raw_compile_ms <- (raw_s *. 1e3) :: a.raw_compile_ms;
    a.raw_compile_s <- a.raw_compile_s +. raw_s;
    a.stmts <- a.stmts + r.stmts
  | Pair _ -> ());
  (match r.verdict with
  | Verify.Pass -> ()
  | Verify.Inconclusive -> a.inconclusive <- a.inconclusive + 1
  | Verify.Failed msg ->
    a.failed <- a.failed + 1;
    if List.length a.failures < 5 then
      a.failures <- (item_name item ^ ": " ^ msg) :: a.failures);
  r

(** Static code size and retired instructions over the programs. *)
let static_counts (progs : Corpus.program list) =
  let stmts = ref 0 and instrs = ref 0 and retired = ref 0 in
  List.iter
    (fun (p : Corpus.program) ->
      match Verify.facts p.src with
      | Some f ->
        stmts := !stmts + f.stmts;
        instrs := !instrs + f.asm_size;
        retired := !retired + f.retired
      | None -> ())
    progs;
  [
    ("code_instrs_per_stmt", share !instrs !stmts);
    ("asm_instrs_retired", float_of_int !retired);
  ]

let total tbl k = match Hashtbl.find_opt tbl k with Some r -> !r | None -> 0.

(** The exact per-layer counts, from one untraced pass over the inputs:
    the steps and words of each interpreter, and the words of each
    driver pass (see {!Layer.pass_words}). *)
let layer_counts items =
  Layer.counting := true;
  let g0 = (Gc.quick_stat ()).Gc.major_collections in
  List.iter (fun it -> ignore (verify (acc ()) it)) items;
  let majors = (Gc.quick_stat ()).Gc.major_collections - g0 in
  Layer.counting := false;
  let words = Hashtbl.create 32 in
  let diff_total = ref 0. and diff_max = ref 0. and calls = ref 0 in
  List.iter
    (function
      | Prog (p : Corpus.program) ->
        let mine = Layer.pass_words (Layer.parse p.src) in
        let driver = Layer.driver_pass_words p.src in
        if List.map fst mine <> List.map fst driver then
          failwith
            (Printf.sprintf "%s: the driver ran the passes %s, the benchmark counted %s" p.name
               (String.concat "," (List.map fst driver))
               (String.concat "," (List.map fst mine)));
        List.iter2
          (fun (name, w) (_, w') ->
            let c = Layer.cell words name 0. in
            c := !c +. w;
            let d = Float.abs (w' -. w) in
            diff_total := !diff_total +. d;
            diff_max := Float.max !diff_max d;
            incr calls)
          mine driver
      | Pair _ -> ())
    items;
  let exact =
    List.map
      (fun l ->
        ( Printf.sprintf "interp.%s.steps" l,
          float_of_int (match Hashtbl.find_opt Layer.steps l with Some r -> !r | None -> 0) ))
      Layer.interpreters
    @ List.map (fun p -> (Printf.sprintf "pass.%s.alloc_words" p, total words p)) Layer.passes
  in
  let interp_words =
    List.map (fun l -> (Printf.sprintf "interp.%s.alloc_words" l, total Layer.words l)) Layer.interpreters
  in
  let diff =
    Json.Obj
      [ ("pass_calls", Json.num_of_int !calls); ("abs_words_total", Json.Num !diff_total);
        ("abs_words_max", Json.Num !diff_max) ]
  in
  (exact, interp_words, majors, diff)

(* Self time and span count per layer over the traced operations. *)
let self_us : (string, float ref) Hashtbl.t = Hashtbl.create 64
let span_count : (string, int ref) Hashtbl.t = Hashtbl.create 64

let is_layer name =
  String.starts_with ~prefix:"pass:" name
  || String.starts_with ~prefix:"interp:" name
  || List.mem name [ "compile"; "compile_source"; "coexec"; "hcomp" ]

(** Fold a span forest into the totals; its self times. *)
let absorb roots =
  let selfs = Layer.self_times ~is_layer roots in
  Hashtbl.iter (fun k v -> let c = Layer.cell self_us k 0. in c := !c +. !v) selfs;
  let rec count (sp : Obs.Trace.span) =
    if is_layer sp.name then incr (Layer.cell span_count sp.name 0);
    List.iter count sp.children
  in
  List.iter count roots;
  selfs

(** Mean self time per span, in ms; 0 when the layer never ran. *)
let mean_self_ms name =
  match Hashtbl.find_opt span_count name with
  | Some n when !n > 0 -> total self_us name /. float_of_int !n /. 1e3
  | _ -> 0.

(** Least-squares slope of log(y) against log(x); 0 without two
    distinct sizes to fit. *)
let exponent (points : (float * float) list) =
  let pts = List.filter (fun (x, y) -> x > 0. && y > 0.) points in
  if List.length (List.sort_uniq compare (List.map fst pts)) < 2 then 0. else
  let n = float_of_int (List.length pts) in
  let lx = List.map (fun (x, _) -> log x) pts and ly = List.map (fun (_, y) -> log y) pts in
  let mean l = List.fold_left ( +. ) 0. l /. n in
  let mx = mean lx and my = mean ly in
  let sxy = List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0. lx ly in
  let sxx = List.fold_left (fun a x -> a +. ((x -. mx) ** 2.)) 0. lx in
  sxy /. sxx

(** [setup_s] is the median of [setup_runs] set-ups. *)
let run (cfg : config) ~setup_runs ~(setup : unit -> item list) : result =
  (* Every set-up starts from a compacted heap, as in a fresh process. *)
  let setup () =
    Gc.compact ();
    timed setup
  in
  if not cfg.counts_only then calibrate_if_due ();
  let items, first_setup_s = setup () in
  let progs = List.filter_map (function Prog p -> Some p | Pair _ -> None) items in
  let static = static_counts progs in
  let layer = if cfg.trace then Some (layer_counts items) else None in
  let exact = static @ (match layer with Some (c, _, _, _) -> c | None -> []) in
  if cfg.counts_only then Counts exact
  else begin
    (* The other set-ups come after the counts, which the second process
       of the self-check takes after a single set-up: set-up parses, and
       parsing draws fresh identifiers whose names the passes then
       allocate. *)
    let setups =
      (first_setup_s *. !scale, first_setup_s)
      :: List.init (setup_runs - 1) (fun _ ->
             calibrate_if_due ();
             let _, s = setup () in
             (s *. !scale, s))
    in
    if cfg.trace then begin
      (* The trace written to disk: the unit pairs and the first inputs,
         verified traced. *)
      let first = List.filteri (fun i it -> i < 40 || match it with Pair _ -> true | Prog _ -> false) items in
      let (), roots = traced_export cfg (fun () -> List.iter (fun it -> ignore (verify (acc ()) it)) first) in
      ignore (absorb roots)
    end;
    let items = Array.of_list items in
    let next = ref 0 in
    let take () =
      let it = items.(!next mod Array.length items) in
      incr next;
      it
    in
    let plain = acc () and traced = acc () in
    let w0 = Gc.minor_words () in
    let metrics =
      match layer with
      | None ->
        ignore
          (loop ~seconds:cfg.seconds (fun () ->
               calibrate_if_due ();
               ignore (verify plain (take ()))));
        [
          ("setup_s", median (List.map fst setups), "s");
          ("compile_ms.p50", median plain.compile_ms, "ms");
          ("compile_ms.p90", quantile plain.compile_ms 0.9, "ms");
          ("compile_stmts_per_s", float_of_int plain.stmts /. plain.compile_s, "1/s");
          ("latency_ms.p50", median plain.verify_ms, "ms");
          ("latency_ms.p90", quantile plain.verify_ms 0.9, "ms");
          ("ops_per_s", float_of_int plain.ops /. plain.busy_s, "1/s");
          ("code_instrs_per_stmt", List.assoc "code_instrs_per_stmt" exact, "ratio");
        ]
      | Some (counts, interp_words, majors, _) ->
        (* Per size (Clight statements compiled): total self time of
           the two passes, and compiles. *)
        let by_size = Hashtbl.create 8 in
        let untraced_s, traced_s =
          alternating ~seconds:cfg.seconds ~window_s:0.5 (fun t ->
              let it = take () in
              if not t then ignore (verify plain it)
              else begin
                let r = verify traced it in
                let selfs = absorb (Obs.Trace.roots ()) in
                Obs.Trace.reset ();
                Obs.Interaction_log.reset ();
                if r.stmts > 0 then
                  List.iter
                    (fun p ->
                      let k = float_of_int r.stmts in
                      let s, n = Option.value ~default:(0., 0) (Hashtbl.find_opt by_size (p, k)) in
                      Hashtbl.replace by_size (p, k) (s +. total selfs ("pass:" ^ p), n + 1))
                    [ "Allocation"; "AllocCheck" ]
              end)
        in
        let words = Gc.minor_words () -. w0 in
        let fit p =
          ( Printf.sprintf "pass.%s.size_exponent" p,
            exponent
              (Hashtbl.fold
                 (fun (p', k) (s, n) acc -> if p' = p then (k, s /. float_of_int n) :: acc else acc)
                 by_size []),
            "ratio" )
        in
        let ops = plain.ops + traced.ops in
        [ ("cfrontend.parse_ms", mean_self_ms "compile_source", "ms") ]
        @ List.map (fun p -> (Printf.sprintf "pass.%s.self_ms" p, mean_self_ms ("pass:" ^ p), "ms")) Layer.passes
        @ List.filter_map
            (fun (k, v) -> if String.starts_with ~prefix:"pass." k then Some (k, v, "words") else None)
            counts
        @ [ fit "Allocation"; fit "AllocCheck" ]
        @ List.map
            (fun l -> (Printf.sprintf "interp.%s.self_ms" l, mean_self_ms ("interp:" ^ l), "ms"))
            Layer.interpreters
        @ List.filter_map
            (fun (k, v) -> if String.starts_with ~prefix:"interp." k then Some (k, v, "count") else None)
            counts
        @ List.map (fun (k, v) -> (k, v, "words")) interp_words
        @ [ ("coexec.ms", mean_self_ms "coexec", "ms"); ("hcomp.ms", mean_self_ms "hcomp", "ms") ]
        @ absent service_layers
        @ [
            ("asm_instrs_retired", List.assoc "asm_instrs_retired" exact, "count");
            ("verdicts.inconclusive_share", share (plain.inconclusive + traced.inconclusive) ops, "ratio");
            ("ops_failed_share", share (plain.failed + traced.failed) ops, "ratio");
            ("gc.minor_words_per_stmt", words /. float_of_int (max 1 (plain.stmts + traced.stmts)), "words");
            ("gc.major_collections", float_of_int majors, "count");
            ( "obs.trace_overhead_share",
              1. -. (float_of_int traced.ops /. traced_s /. (float_of_int plain.ops /. untraced_s)),
              "ratio" );
          ]
    in
    Done
      {
        attempted = plain.ops + traced.ops;
        failed = plain.failed + traced.failed;
        failures = plain.failures @ traced.failures;
        metrics;
        counts = exact;
        info =
          (match layer with
          | Some (_, _, _, diff) -> [ ("driver_pass_words_diff", diff) ]
          | None ->
            let num v = Json.Num v in
            [
              ("setups_s", Json.List (List.map (fun (v, _) -> Json.Num v) setups));
              ( "unscaled",
                Json.Obj
                  [
                    ("setup_s", num (median (List.map snd setups)));
                    ("compile_ms.p50", num (median plain.raw_compile_ms));
                    ("compile_ms.p90", num (quantile plain.raw_compile_ms 0.9));
                    ("compile_stmts_per_s", num (float_of_int plain.stmts /. plain.raw_compile_s));
                    ("latency_ms.p50", num (median plain.raw_verify_ms));
                    ("latency_ms.p90", num (quantile plain.raw_verify_ms 0.9));
                    ("ops_per_s", num (float_of_int plain.ops /. plain.raw_busy_s));
                  ] );
            ]);
      }
  end

(** Fisher–Yates under a seeded state. *)
let shuffle ~seed l =
  let rand = Random.State.make [| seed; 17 |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** Generated programs in the verify_corpus draw. Which programs a seed
    draws changes how long their verifications take; 2000 of them keep
    that seed-to-seed difference small (README.md). *)
let drawn = 2000

let verify_corpus cfg =
  run cfg ~setup_runs:5
    ~setup:(fun () ->
      (* The programs with known answers first, so every run checks
         them; the draw in a seeded order, so that a partial last pass is
         a random subset. *)
      List.map (fun p -> Prog p) Corpus.hand_written
      @ List.map (fun p -> Pair p) Corpus.pairs
      @ shuffle ~seed:cfg.seed
          (List.map (fun p -> Prog p) (Verify.stratified_draw ~seed:cfg.seed drawn)))

(** Statement counts of the sweep, and programs drawn per count. *)
let sweep = [ 20; 40; 80; 160; 320 ]
let variants = 24

let big_functions cfg =
  (* A set-up takes about 0.1 s here, against 1.3 s on verify_corpus:
     the median of five spread by 0.37 over five seeds. *)
  run cfg ~setup_runs:21 ~setup:(fun () ->
      (* Sizes interleaved, so any prefix of a pass holds every size in
         equal shares. Set-up also runs the Clight reference on each
         parsed source, as the stratified draw of verify_corpus does, and
         refuses an input whose reference disagrees with the known
         answer computed here. *)
      List.concat_map
        (fun v ->
          List.map
            (fun k ->
              let p = Corpus.straight ~seed:cfg.seed ~k ~variant:v in
              if Verify.reference_answer p.src <> p.expect then
                failwith (p.name ^ ": the Clight reference disagrees with the known answer");
              Prog p)
            sweep)
        (List.init variants Fun.id))
