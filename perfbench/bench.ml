(** The repository benchmark. See README.md for the workloads, the
    metrics and why they are built the way they are.

    {v
    bench.exe --workload verify_corpus|big_functions|serve_mixed
              --seed N --seconds S --trace 0|1 [--out DIR] [--counts]
    v}

    The last line of standard output is one JSON object with the keys
    [correct], [attempted], [failed] and [metrics]: the end-to-end
    metrics with [--trace 0], the per-layer ones with [--trace 1].
    Before it comes one [info] line with the GC settings, the exact
    counts and what else the run recorded. [--counts] prints only the
    exact counts; the benchmark runs itself that way in a second
    process and refuses to report when the two disagree. *)

open Util

(** The daemon of serve_mixed, when started with [--serve SOCKET]. *)
let serve_socket = ref ""
let serve_cache = ref ""
let serve_obs = ref 1

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let counts_only = ref false and out_dir = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S length of the measured loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--out", Arg.Set_string out_dir, "DIR where traces and the daemon's store go");
      ("--counts", Arg.Set counts_only, " print the exact counts only");
      ("--serve", Arg.Set_string serve_socket, "SOCKET run serve_mixed's daemon");
      ("--cache", Arg.Set_string serve_cache, "DIR the daemon's store");
      ("--serve-obs", Arg.Set_int serve_obs, "0|1 the daemon's metrics and spans off or on");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    counts_only = !counts_only; out_dir = !out_dir }

(** GC parity with [occo] (bin/occo.ml): a 2M-word minor heap unless
    OCAMLRUNPARAM is set. Returns the effective settings. *)
let tune_gc () =
  let param = Sys.getenv_opt "OCAMLRUNPARAM" in
  if Option.is_none param then
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 };
  let g = Gc.get () in
  [
    ("ocamlrunparam", match param with Some s -> Json.Str s | None -> Json.Null);
    ("minor_heap_words", Json.num_of_int g.Gc.minor_heap_size);
    ("space_overhead", Json.num_of_int g.Gc.space_overhead);
  ]

let counts_json counts = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) counts)

(** The exact counts again, from a fresh process running [--counts], and
    that process's peak resident set. *)
let second_opinion (cfg : config) =
  let args =
    [| Sys.executable_name; "--counts"; "--workload"; cfg.workload; "--seed";
       string_of_int cfg.seed; "--trace"; (if cfg.trace then "1" else "0");
       "--out"; cfg.out_dir |]
  in
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  match (Unix.waitpid [] pid, Json.parse_opt out) with
  | (_, Unix.WEXITED 0), Some j -> (
    match (Json.member "counts" j, Option.bind (Json.member "peak_rss_mb" j) Json.to_num) with
    | Some c, Some rss -> Some (Json.to_string c, rss)
    | _ -> None)
  | _ -> None

let () =
  let cfg = parse_args () in
  let gc = tune_gc () in
  if !serve_socket <> "" then begin
    Serve_wl.serve ~obs:(!serve_obs = 1) ~socket:!serve_socket ~cache_dir:!serve_cache ~seed:cfg.seed;
    exit 0
  end;
  ensure_dir cfg.out_dir;
  let result =
    match cfg.workload with
    | "verify_corpus" -> Verify_wl.verify_corpus cfg
    | "big_functions" -> Verify_wl.big_functions cfg
    | "serve_mixed" -> Serve_wl.run cfg
    | w ->
      prerr_endline ("bench: unknown workload " ^ w);
      exit 2
  in
  match result with
  | Counts c ->
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("counts", counts_json c); ("peak_rss_mb", Json.Num (peak_rss_mb (Unix.getpid ()))) ]))
  | Done o ->
    List.iter (fun f -> prerr_endline ("bench: failed: " ^ f)) o.failures;
    let mine = Json.to_string (counts_json o.counts) in
    let rss =
      match second_opinion cfg with
      | Some (theirs, rss) when theirs = mine -> rss
      | theirs ->
        prerr_endline "bench: determinism self-check failed; the exact counts differ";
        prerr_endline ("  this process:   " ^ mine);
        prerr_endline ("  second process: " ^ Option.fold ~none:"(none)" ~some:fst theirs);
        exit 1
    in
    (* The verification workloads report the peak memory of the second
       process, which compiles each input once: the peak of this one is
       set by whichever program's verification needs the most memory,
       and so by the draw rather than by the compiler. *)
    let metrics =
      if cfg.trace || cfg.workload = "serve_mixed" then o.metrics
      else o.metrics @ [ ("peak_rss_mb", rss, "MB") ]
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ( "info",
                Json.Obj
                  ([ ("gc", Json.Obj gc) ]
                  @ (if !scales = [] then [] else [ ("speed_scale", Json.Num (median !scales)) ])
                  @ [ ("exact_counts", counts_json o.counts) ]
                  @ o.info) );
            ]));
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool (o.failed = 0));
              ("attempted", Json.num_of_int o.attempted);
              ("failed", Json.num_of_int o.failed);
              ( "metrics",
                Json.Obj
                  (List.map
                     (fun (name, v, u) ->
                       (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                     metrics) );
            ]))
