(** The compromised-component campaign.

    For each trial, a correct compiled component is linked (via
    {!Core.Hcomp.compose}) against a partner synthesized by
    {!Partner} — faithful up to a seeded rogue activation, adversarial
    after it — and run on the differential harness while the
    {!Property} monitors watch the boundary. The campaign tallies a
    partner-mode × property {b survival matrix}: which safety
    properties caught which class of compromise.

    Detection has three independent sources, in the order a triager
    would trust them:

    - {b property monitors}: a boundary obligation was violated
      (imports, callee-save, memory, welltyped);
    - {b diagnosed outcome}: the composite run ended in a structured
      non-final outcome (stuck, out of fuel, …) — the harness noticed
      {e something} even if no monitor named it;
    - {b divergence}: the run completed but its answer does not
      mutually refine the recorded reference.

    Trial [i] of a seeded campaign is deterministic in [(seed, i)]
    alone — partner mode and corpus program cycle with [i], the rogue
    activation is drawn from an RNG derived from [seed] and [i] — so
    the supervised runner can judge trials in isolated worker
    processes, in any completion order, and still agree with the
    in-process runner on what trial [i] is (the same design as
    {!Faultinject.Campaign}). Every trial ends in a classified verdict;
    a trial whose machinery raises is itself recorded as a failed
    expectation, never propagated. *)

open Support
module Diag = Support.Diagnostics
module Io = Driver.Io_oracle
module Sup = Harness.Supervisor

(** {1 The corpus}

    Closed loops over partner calls where {e every} partner result
    feeds the final answer through injective (affine, factor ≥ 1)
    updates — so a wrong result at {e any} activation provably
    diverges the final answer, and the wrong-result mode can never hide
    behind an unused return value. *)

let corpus : (string * string * (unit -> Io.primitive list)) list =
  let open Memory.Mtypes in
  let sg1 = { sig_args = [ Tint ]; sig_res = Some Tint } in
  let sg2 = { sig_args = [ Tint; Tint ]; sig_res = Some Tint } in
  [
    ( "step-mix",
      "int p_step(int x);\n\
       int p_mix(int a, int b);\n\
       int main(void) {\n\
      \  int acc = 1;\n\
      \  for (int i = 0; i < 4; i++) {\n\
      \    int s = p_step(i + acc);\n\
      \    acc = p_mix(acc, s);\n\
      \  }\n\
      \  return acc;\n\
       }\n",
      fun () ->
        [
          { Io.prim_name = "p_step"; prim_sig = sg1;
            prim_impl =
              (fun args ->
                match args with
                | [ x ] -> Int32.add (Int32.mul 2l x) 3l
                | _ -> 0l) };
          { Io.prim_name = "p_mix"; prim_sig = sg2;
            prim_impl =
              (fun args ->
                match args with
                | [ a; b ] -> Int32.sub (Int32.mul 3l a) b
                | _ -> 0l) };
        ] );
    ( "query-fold",
      "int p_query(int k);\n\
       int p_fold(int acc, int v);\n\
       int main(void) {\n\
      \  int total = 5;\n\
      \  total = p_fold(total, p_query(0));\n\
      \  total = p_fold(total, p_query(1));\n\
      \  total = p_fold(total, p_query(2));\n\
      \  return total;\n\
       }\n",
      fun () ->
        [
          { Io.prim_name = "p_query"; prim_sig = sg1;
            prim_impl =
              (fun args ->
                match args with
                | [ k ] -> Int32.add (Int32.mul 7l k) 5l
                | _ -> 0l) };
          { Io.prim_name = "p_fold"; prim_sig = sg2;
            prim_impl =
              (fun args ->
                match args with
                | [ a; v ] -> Int32.add (Int32.mul 2l a) v
                | _ -> 0l) };
        ] );
  ]

let default_fuel = 120_000

(** {1 Compiling the corpus and recording reference traces} *)

type compiled = {
  cc_name : string;
  cc_symbols : Ident.t list;
  cc_asm : Backend.Asm.program;
  cc_entry : Ident.t;
  cc_prims : Io.primitive list;
  cc_query : Iface.Li.c_query;
  cc_ref : Driver.Runners.c_outcome;  (** the well-behaved reference run *)
  cc_trace : Io.log_entry list;  (** its partner-call log, in order *)
}

(** Compile each corpus program and record its well-behaved interaction
    trace: the compiled Asm run against the [A]-level oracle
    implementation of its partner primitives, with the call log
    captured. This log is the prefix the synthesized partners
    back-translate. *)
let compile_corpus ~fuel () : (compiled list, Diag.t) result =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (name, src, prims_of) :: rest -> (
      match Driver.Runners.compile_main ~name src with
      | Error d -> Error d
      | Ok (arts, symbols, q) -> (
        let prims = prims_of () in
        let record, read = Io.make_log () in
        let oracle = Io.a_oracle ~symbols prims record in
        let fail kind msg =
          Error
            (Diag.make ~phase:Diag.Campaign ~kind
               ~context:[ ("program", name) ]
               "%s" msg)
        in
        match
          Driver.Runners.run_a_level
            (Backend.Asm.semantics ~symbols arts.Driver.Compiler.asm)
            ~fuel ~oracle q
        with
        | Error e ->
          fail Diag.Marshal_failure
            (Printf.sprintf "reference run of %s failed: %s" name e)
        | Ok ref_out -> (
          match read () with
          | [] ->
            fail Diag.Internal_error
              (Printf.sprintf "corpus program %s never calls its partner" name)
          | trace ->
            go
              ({ cc_name = name; cc_symbols = symbols;
                 cc_asm = arts.Driver.Compiler.asm;
                 cc_entry = arts.Driver.Compiler.clight1.Iface.Ast.prog_main;
                 cc_prims = prims; cc_query = q; cc_ref = ref_out;
                 cc_trace = trace }
              :: acc)
              rest)))
  in
  go [] corpus

(** {1 Trials} *)

type verdict = Detected | Undetected

let verdict_name = function Detected -> "detected" | Undetected -> "undetected"

type trial_result = {
  t_index : int;
  t_program : string;
  t_mode : Partner.mode;
  t_rogue_at : int;  (** 0-based activation where the partner went rogue *)
  t_outcome : string;  (** printable classification of the composed run *)
  t_props : Property.prop list;  (** distinct properties violated *)
  t_detected_by : string list;  (** every detection source that fired *)
  t_prefix_ok : bool;
      (** the replayed call prefix matched the recorded trace (the
          back-translation sanity check) *)
  t_verdict : verdict;
}

(* Does the observed C1→C2 call sequence agree with the recorded trace
   on the first [upto] activations (names and decoded arguments)? *)
let prefix_matches ~(trace : Io.log_entry list) ~(calls : Property.call list)
    ~(upto : int) : bool =
  let rec go k ts cs =
    k >= upto
    ||
    match (ts, cs) with
    | t :: ts', c :: cs' ->
      t.Io.call_name = c.Property.c_name
      && c.Property.c_args = Some t.Io.call_args
      && go (k + 1) ts' cs'
    | _ -> false
  in
  go 0 trace calls

(* Link the correct component of [cp] against the environment
   [make_env] builds, run it while the property monitors watch the
   boundary, and classify. [rogue_at] is the global activation up to
   which the replayed call prefix must match the recorded trace. Never
   raises: a trial whose machinery raises is recorded as one that fails
   its expectation. *)
let judge ~(cp : compiled) ~fuel ~index ~mode ~rogue_at make_env : trial_result
    =
  let result ~outcome ~props ~detected_by ~prefix_ok =
    {
      t_index = index;
      t_program = cp.cc_name;
      t_mode = mode;
      t_rogue_at = rogue_at;
      t_outcome = outcome;
      t_props = props;
      t_detected_by = detected_by;
      t_prefix_ok = prefix_ok;
      t_verdict = (if detected_by <> [] then Detected else Undetected);
    }
  in
  try
    let exports =
      List.map
        (fun (b, p) -> (b, (p.Io.prim_name, p.Io.prim_sig)))
        (Partner.export_table ~symbols:cp.cc_symbols cp.cc_prims)
    in
    let mon = Property.monitor ~exports ~partner_imports:[] () in
    let composed =
      Core.Hcomp.compose ~observe:mon.Property.m_observe
        (Backend.Asm.semantics ~symbols:cp.cc_symbols cp.cc_asm)
        (make_env ())
    in
    let outcome, diagnosed, diverged =
      match Driver.Runners.run_a_level composed ~fuel cp.cc_query with
      | Error e -> ("marshal: " ^ e, true, false)
      | Ok o ->
        let name, diagnosed = Driver.Runners.classify_outcome o in
        let diverged =
          (not diagnosed)
          && not
               (Driver.Runners.outcome_refines cp.cc_ref o
               && Driver.Runners.outcome_refines o cp.cc_ref)
        in
        (name, diagnosed, diverged)
    in
    let props = Property.violated (mon.Property.m_violations ()) in
    let calls = mon.Property.m_calls () in
    let prefix_ok =
      let upto =
        if mode = Partner.Replay_faithful then
          (* the control must replay the whole trace, call for call *)
          max (List.length cp.cc_trace) (List.length calls)
        else rogue_at
      in
      prefix_matches ~trace:cp.cc_trace ~calls ~upto
    in
    result ~outcome ~props ~prefix_ok
      ~detected_by:
        (List.map (fun p -> "property:" ^ Property.prop_name p) props
        @ (if diagnosed then [ "diagnosed:" ^ outcome ] else [])
        @ if diverged then [ "divergence" ] else [])
  with e ->
    result
      ~outcome:("uncaught exception: " ^ Printexc.to_string e)
      ~props:[] ~detected_by:[] ~prefix_ok:false

(** Run trial [i]: link the correct component against the synthesized
    partner, monitor the boundary, classify. Deterministic in
    [(seed, i)]. Never raises. *)
let try_partner ~(compiled : compiled list) ~fuel ~seed i : trial_result =
  let n_modes = List.length Partner.all_modes in
  let mode = List.nth Partner.all_modes (i mod n_modes) in
  let cp = List.nth compiled (i mod List.length compiled) in
  let rng = Random.State.make [| seed; 8191 * (i + 1) |] in
  let rogue_at = Random.State.int rng (List.length cp.cc_trace) in
  judge ~cp ~fuel ~index:i ~mode ~rogue_at (fun () ->
      (Partner.synthesize ~symbols:cp.cc_symbols ~prims:cp.cc_prims
         ~entry:cp.cc_entry ~trace:cp.cc_trace ~mode ~rogue_at ())
        .Partner.p_lts)

(** What each partner mode must produce. The faithful control must be
    indistinguishable from the recorded run (no detection, full-prefix
    match); every rogue mode must be detected, with its replay prefix
    intact up to the rogue point. An "uncaught exception" outcome fails
    both arms. *)
let expectation (t : trial_result) : bool =
  match t.t_mode with
  | Partner.Replay_faithful ->
    t.t_verdict = Undetected && t.t_prefix_ok && t.t_outcome = "final"
  | _ -> t.t_verdict = Detected && t.t_prefix_ok

(** {1 The survival matrix} *)

type cell = { mutable tried : int; mutable detected : int; mutable expected : int }

type report = {
  rb_seed : int;
  rb_requested : int;
  rb_trials : trial_result list;
  rb_matrix : (Partner.mode * (Property.prop * int) list) list;
      (** per mode: how many trials each property caught *)
  rb_totals : (Partner.mode * cell) list;
}

let assemble ~seed ~requested ~(results : trial_result list) : report =
  let of_mode m = List.filter (fun t -> t.t_mode = m) results in
  {
    rb_seed = seed;
    rb_requested = requested;
    rb_trials = results;
    rb_matrix =
      List.map
        (fun m ->
          let ts = of_mode m in
          ( m,
            List.map
              (fun p ->
                ( p,
                  List.length (List.filter (fun t -> List.mem p t.t_props) ts)
                ))
              Property.all_props ))
        Partner.all_modes;
    rb_totals =
      List.map
        (fun m ->
          let ts = of_mode m in
          ( m,
            {
              tried = List.length ts;
              detected =
                List.length (List.filter (fun t -> t.t_verdict = Detected) ts);
              expected = List.length (List.filter expectation ts);
            } ))
        Partner.all_modes;
  }

(** Acceptance: every trial met its mode's expectation, and every
    partner mode was exercised at least once. *)
let survival_ok (rp : report) : bool =
  rp.rb_trials <> []
  && List.for_all expectation rp.rb_trials
  && List.for_all (fun (_, c) -> c.tried > 0) rp.rb_totals

(** The weaker check for resumed campaigns: nothing judged {e this} run
    failed its expectation, but modes fully skipped by the journal need
    not have been re-exercised. *)
let partial_survival_ok (rp : report) : bool =
  List.for_all expectation rp.rb_trials

let undetected_rogues (rp : report) : trial_result list =
  List.filter
    (fun t -> t.t_mode <> Partner.Replay_faithful && t.t_verdict = Undetected)
    rp.rb_trials

(* Per-trial counters and per-report gauges, under [prefix]
   ("robust" for the single-partner campaign, "robust.multi" for the
   multi-partner one). The gauges feed the bench-diff regression gate:
   an increase in undetected rogue partners (or expectation failures)
   between runs is a robustness regression. *)
let record_trial_metrics ~prefix ~counter (t : trial_result) =
  Obs.Metrics.incr_counter (prefix ^ "." ^ counter);
  if t.t_mode <> Partner.Replay_faithful then
    Obs.Metrics.incr_counter
      (match t.t_verdict with
      | Detected -> prefix ^ ".detected"
      | Undetected -> prefix ^ ".undetected")

let record_report_metrics ~prefix (rp : report) =
  Obs.Metrics.set_gauge (prefix ^ ".undetected_rogues")
    (float_of_int (List.length (undetected_rogues rp)));
  Obs.Metrics.set_gauge (prefix ^ ".expectation_failures")
    (float_of_int
       (List.length (List.filter (fun t -> not (expectation t)) rp.rb_trials)))

(** The job the [--inject-hang] smoke test adds: a partner worker that
    never terminates, so the supervisor's watchdog must classify it as
    a timeout. (The in-campaign [Silent_divergence] mode burns fuel
    {e in-process} and is diagnosed as [Out_of_fuel]; this job models
    the complementary failure, a worker the harness itself cannot
    bound.) *)
let hang_job_id = "inject-hang"

let hang_job : trial_result option Sup.job =
  {
    Sup.job_id = hang_job_id;
    job_class = "inject-hang";
    job_run =
      (fun ~attempt:_ ->
        while true do
          ignore (Sys.opaque_identity 0)
        done;
        Ok None);
    job_degraded = None;
  }

(** {1 Running}

    One runner over {!Harness.Trials} for every variant: trial [i] comes
    from [(seed, i)] alone, in-process or, with [supervise], in one
    forked worker per trial, so a partner that wedges or bombs the heap
    is a [Timed_out]/[Crashed] outcome — a classified verdict at the
    supervisor layer — rather than the end of the campaign. The report
    covers the trials that completed. *)
let run_trials ?supervise ?(inject_hang = false) ?(on_result = fun _ -> ())
    ~fuel ~prefix ~counter ~try_trial ~seed ~n () =
  match compile_corpus ~fuel () with
  | Error d -> Error d
  | Ok compiled ->
    let results, outcomes =
      Harness.Trials.run ?supervise
        ~extra:(if inject_hang then [ hang_job ] else [])
        ~id_prefix:"partner" ~job_class:"compromise-partner" ~n
        ~on_result:(fun t ->
          record_trial_metrics ~prefix ~counter t;
          on_result t)
        (fun i -> Some (try_trial ~compiled ~fuel ~seed i))
    in
    let rp = assemble ~seed ~requested:n ~results in
    record_report_metrics ~prefix rp;
    Ok (rp, outcomes)

(** The in-process campaign. *)
let run ?(fuel = default_fuel) ?on_result ~seed ~partners () :
    (report, Diag.t) result =
  Result.map fst
    (run_trials ?on_result ~fuel ~prefix:"robust" ~counter:"partners"
       ~try_trial:try_partner ~seed ~n:partners ())

(** The supervised campaign; returns the report plus the raw supervisor
    outcomes. *)
let run_supervised ?(fuel = default_fuel) ?on_result ?inject_hang
    ~(cfg : Sup.config) ~seed ~partners () =
  run_trials ~supervise:cfg ?inject_hang ?on_result ~fuel ~prefix:"robust"
    ~counter:"partners" ~try_trial:try_partner ~seed ~n:partners ()

(** {1 Multi-partner composition}

    The linking scenario of the paper is n-ary: a component's
    environment is usually {e several} other components, linked by
    iterated [⊕]. A multi-partner trial splits the corpus program's
    primitives between {e two} synthesized partners — one faithful
    control and one rogue — links the pair with {!Core.Hcomp.compose_all}
    (they share the {!Partner.pstate} state type), and composes the
    result with the correct compiled component. The survival question
    sharpens: with an honest co-resident partner answering half the
    calls, does every rogue mode still get caught, and is the faithful
    pair still indistinguishable from the reference run? *)

let prim_names prims = List.map (fun p -> p.Io.prim_name) prims

(** The sub-trace a partner exporting [prims] is responsible for:
    exactly the recorded calls to its primitives, in global order —
    which is the order its own activation counter will see them. *)
let partner_trace prims (trace : Io.log_entry list) : Io.log_entry list =
  let names = prim_names prims in
  List.filter (fun e -> List.mem e.Io.call_name names) trace

(** The global trace index of the rogue partner's [local]-th activation
    (its rogue point), for the whole-composite prefix check. *)
let global_rogue_index ~rogue_prims ~(trace : Io.log_entry list) ~local : int =
  let names = prim_names rogue_prims in
  let rec go k local = function
    | [] -> k
    | e :: rest ->
      if List.mem e.Io.call_name names then
        if local = 0 then k else go (k + 1) (local - 1) rest
      else go (k + 1) local rest
  in
  go 0 local trace

(** Run multi-partner trial [i]: the corpus program linked against a
    faithful partner and a rogue one (mode cycling with [i], the rogue
    primitive and activation drawn from the [(seed, i)] RNG).
    [Replay_faithful] trials make both partners faithful — the control
    arm. Deterministic in [(seed, i)]; never raises. *)
let try_multi ~(compiled : compiled list) ~fuel ~seed i : trial_result =
  let n_modes = List.length Partner.all_modes in
  let mode = List.nth Partner.all_modes (i mod n_modes) in
  let cp = List.nth compiled (i mod List.length compiled) in
  let rng = Random.State.make [| seed; 24593 * (i + 1) |] in
  let rogue_idx = Random.State.int rng (List.length cp.cc_prims) in
  let rogue_prims = [ List.nth cp.cc_prims rogue_idx ] in
  let faithful_prims =
    List.filteri (fun j _ -> j <> rogue_idx) cp.cc_prims
  in
  let rogue_trace = partner_trace rogue_prims cp.cc_trace in
  let rogue_local_at =
    if rogue_trace = [] then 0
    else Random.State.int rng (List.length rogue_trace)
  in
  let global_rogue_at =
    global_rogue_index ~rogue_prims ~trace:cp.cc_trace ~local:rogue_local_at
  in
  judge ~cp ~fuel ~index:i ~mode ~rogue_at:global_rogue_at (fun () ->
      let faithful =
        Partner.synthesize ~symbols:cp.cc_symbols ~prims:faithful_prims
          ~entry:cp.cc_entry
          ~trace:(partner_trace faithful_prims cp.cc_trace)
          ~mode:Partner.Replay_faithful ~rogue_at:0 ()
      in
      let rogue =
        Partner.synthesize ~symbols:cp.cc_symbols ~prims:rogue_prims
          ~entry:cp.cc_entry ~trace:rogue_trace ~mode
          ~rogue_at:rogue_local_at ()
      in
      (* The two partners become one environment component; their
         domains are disjoint by construction (distinct primitive
         symbols). *)
      Core.Hcomp.compose_all [| faithful.Partner.p_lts; rogue.Partner.p_lts |])

(** The multi-partner campaign, in-process (the trials are cheap: the
    expensive corpus compile happens once). *)
let run_multi ?(fuel = default_fuel) ?on_result ~seed ~trials () :
    (report, Diag.t) result =
  Result.map fst
    (run_trials ?on_result ~fuel ~prefix:"robust.multi" ~counter:"trials"
       ~try_trial:try_multi ~seed ~n:trials ())

(** Acceptance for the multi-partner matrix: the same bar as the
    single-partner campaign — every rogue mode exercised and detected
    (with the replay prefix intact up to the rogue point), the
    both-faithful control undetected with a full-prefix match. *)
let multi_survival_ok (rp : report) : bool = survival_ok rp

(** {1 Reporting} *)

let pp_matrix fmt (rp : report) =
  Format.fprintf fmt "%-22s %6s %9s %9s" "partner mode" "tried" "detected"
    "expected";
  List.iter
    (fun p -> Format.fprintf fmt " %12s" (Property.prop_name p))
    Property.all_props;
  Format.pp_print_newline fmt ();
  List.iter
    (fun (m, c) ->
      Format.fprintf fmt "%-22s %6d %9d %9d" (Partner.mode_name m) c.tried
        c.detected c.expected;
      let row = List.assoc m rp.rb_matrix in
      List.iter
        (fun p -> Format.fprintf fmt " %12d" (List.assoc p row))
        Property.all_props;
      Format.pp_print_newline fmt ())
    rp.rb_totals

let pp_failures fmt (rp : report) =
  match List.filter (fun t -> not (expectation t)) rp.rb_trials with
  | [] -> Format.fprintf fmt "all partner trials met their expectations@."
  | ts ->
    List.iter
      (fun t ->
        Format.fprintf fmt
          "UNEXPECTED trial %d: %s on %s (rogue at %d): %s verdict=%s%s@."
          t.t_index
          (Partner.mode_name t.t_mode)
          t.t_program t.t_rogue_at t.t_outcome
          (verdict_name t.t_verdict)
          (if t.t_prefix_ok then "" else " (replay prefix broken)"))
      ts

let trial_to_json (t : trial_result) : Obs.Json.t =
  let open Obs.Json in
  Obj
    [
      ("index", num_of_int t.t_index);
      ("program", Str t.t_program);
      ("mode", Str (Partner.mode_name t.t_mode));
      ("rogue_at", num_of_int t.t_rogue_at);
      ("outcome", Str t.t_outcome);
      ( "properties",
        List (List.map (fun p -> Str (Property.prop_name p)) t.t_props) );
      ("detected_by", List (List.map (fun s -> Str s) t.t_detected_by));
      ("prefix_ok", Bool t.t_prefix_ok);
      ("verdict", Str (verdict_name t.t_verdict));
      ("as_expected", Bool (expectation t));
    ]

let to_json (rp : report) : Obs.Json.t =
  let open Obs.Json in
  Obj
    [
      ("seed", num_of_int rp.rb_seed);
      ("requested", num_of_int rp.rb_requested);
      ("tried", num_of_int (List.length rp.rb_trials));
      ("undetected_rogues", num_of_int (List.length (undetected_rogues rp)));
      ("survival_ok", Bool (survival_ok rp));
      ( "matrix",
        Obj
          (List.map
             (fun (m, c) ->
               let row = List.assoc m rp.rb_matrix in
               ( Partner.mode_name m,
                 Obj
                   ([
                      ("tried", num_of_int c.tried);
                      ("detected", num_of_int c.detected);
                      ("expected", num_of_int c.expected);
                    ]
                   @ List.map
                       (fun (p, n) -> (Property.prop_name p, num_of_int n))
                       row) ))
             rp.rb_totals) );
      ("trials", List (List.map trial_to_json rp.rb_trials));
    ]
