(** Calls into each layer of the program, wrapped from the outside.

    Nothing here changes how a layer runs. With [tracing] on, every call
    opens a span named after its layer; the driver's own [pass:*] spans
    and the interpreters' [run:*] spans then nest below these. With
    [counting] on, each interpreter's [step] is wrapped to count the
    transitions it takes, and [Gc.minor_words] deltas around each run
    give the words it allocated. Both switches are off in the untraced
    runs that produce the end-to-end metrics. *)

open Iface
module Compiler = Driver.Compiler
module Runners = Driver.Runners
module Lts = Core.Smallstep

let tracing = ref false
let counting = ref false

let span name f = if !tracing then Obs.Trace.with_span name f else f ()

(* Exact per-interpreter counts, keyed by interpreter name. *)
let steps : (string, int ref) Hashtbl.t = Hashtbl.create 16
let words : (string, float ref) Hashtbl.t = Hashtbl.create 16

let cell tbl k zero =
  match Hashtbl.find_opt tbl k with
  | Some r -> r
  | None ->
    let r = ref zero in
    Hashtbl.add tbl k r;
    r

(** [l], counting into [n] the steps it takes. *)
let step_counter n (l : ('s, 'qi, 'ri, 'qo, 'ro) Lts.lts) =
  {
    l with
    Lts.step =
      (fun s ->
        let r = l.Lts.step s in
        if r <> [] then incr n;
        r);
  }

let counted interp l = if !counting then step_counter (cell steps interp 0) l else l

(** The nine interpreters, in pipeline order. *)
let interpreters =
  [ "clight"; "csharpminor"; "cminor"; "cminorsel"; "rtl"; "ltl"; "linear";
    "mach"; "asm" ]

(** The driver's passes, in pipeline order. *)
let passes =
  [ "SimplLocals"; "Cshmgen"; "Cminorgen"; "Selection"; "RTLgen"; "Tailcall";
    "Inlining"; "Renumber"; "Constprop"; "CSE"; "Deadcode"; "Allocation";
    "AllocCheck"; "Tunneling"; "Linearize"; "CleanupLabels"; "Debugvar";
    "Stacking"; "Asmgen" ]

(** [run ()], a run of interpreter [interp]: traced, and its words
    counted. *)
let run_interp interp (run : unit -> 'a) : 'a =
  let w0 = Gc.minor_words () in
  let r = span ("interp:" ^ interp) run in
  if !counting then begin
    let c = cell words interp 0. in
    c := !c +. (Gc.minor_words () -. w0)
  end;
  r

(* ------------------------------------------------------------------ *)
(* Front end and compiler                                             *)
(* ------------------------------------------------------------------ *)

(** [Driver.Compiler.compile_source_diag]: the parse happens inside it,
    before the driver's own [compile] span opens, so the self time of
    this span is the time [Cfrontend.Cparser] took. *)
let compile src = span "compile_source" (fun () -> Compiler.compile_source_diag src)

let parse src = Cfrontend.Cparser.parse_program src

(** Words each pass of the driver allocates on one program: the passes
    of [Driver.Compiler.compile_diag] with every optimization, in its
    order and with its allocator fallback, each called directly between
    two [Gc.minor_words] reads. The driver's own pass spans carry
    counts of the same words, but theirs also include what their clock
    reads and histogram updates allocate, which depends on timing (see
    {!driver_pass_words}, which checks this copy against the driver). *)
let pass_words (p : Cfrontend.Csyntax.program) : (string * float) list =
  let words = ref [] in
  let pass name f x =
    let w0 = Gc.minor_words () in
    let r = try f x with _ -> Error "raised" in
    words := (name, Gc.minor_words () -. w0) :: !words;
    match r with Ok v -> v | Error _ -> raise Exit
  in
  let module P = Passes in
  (try
     let rtl =
       p
       |> pass "SimplLocals" P.Simpllocals.transf_program
       |> pass "Cshmgen" P.Cshmgen.transf_program
       |> pass "Cminorgen" P.Cminorgen.transf_program
       |> pass "Selection" P.Selection.transf_program
       |> pass "RTLgen" P.Rtlgen.transf_program
       |> pass "Tailcall" P.Tailcall.transf_program
       |> pass "Inlining" P.Inlining.transf_program
       |> pass "Renumber" P.Renumber.transf_program
       |> pass "Constprop" P.Constprop.transf_program
       |> pass "CSE" P.Cse.transf_program
       |> pass "Deadcode" P.Deadcode.transf_program
     in
     let allocate strategy =
       let ltl, assignments =
         pass "Allocation" (P.Allocation.transf_program_with_assignments ~strategy) rtl
       in
       pass "AllocCheck" (P.Alloc_check.validate_program ~assignments rtl) ltl;
       ltl
     in
     (* The driver falls back to the graph allocator only when the
        linear scan fails in Allocation or AllocCheck. *)
     let requested = !P.Allocation.default_strategy in
     let ltl =
       try allocate requested
       with Exit when requested = P.Allocation.Linear_scan -> allocate P.Allocation.Graph
     in
     ignore
       (ltl
       |> pass "Tunneling" P.Tunneling.transf_program
       |> pass "Linearize" P.Linearize.transf_program
       |> pass "CleanupLabels" P.Cleanuplabels.transf_program
       |> pass "Debugvar" P.Debugvar.transf_program
       |> pass "Stacking" P.Stacking.transf_program
       |> pass "Asmgen" P.Asmgen.transf_program)
   with Exit -> ());
  List.rev !words

(** The driver's own account of compiling [src]: the name and the
    [minor_alloc_words] attribute of each [pass:*] span, in the order
    the passes ran. {!pass_words} must run the same passes in the same
    order; the words differ by what the spans' clock reads allocate. *)
let driver_pass_words src : (string * float) list =
  Obs.Trace.reset ();
  ignore (Obs.with_enabled (fun () -> Compiler.compile_source_diag src));
  let rec passes (sp : Obs.Trace.span) =
    if String.starts_with ~prefix:"pass:" sp.name then
      let w =
        match List.assoc_opt "minor_alloc_words" sp.attrs with
        | Some (Obs.Json.Num v) -> v
        | _ -> nan
      in
      [ (String.sub sp.name 5 (String.length sp.name - 5), w) ]
    else List.concat_map passes sp.children
  in
  let r = List.concat_map passes (Obs.Trace.roots ()) in
  Obs.Trace.reset ();
  Obs.Interaction_log.reset ();
  r

(* ------------------------------------------------------------------ *)
(* The thirteen levels of the differential run                        *)
(* ------------------------------------------------------------------ *)

type level = {
  level : string;
  interp : string;
  outcome : (Runners.c_outcome, string) result;
}

let run_levels ~fuel ~symbols (a : Compiler.artifacts) (q : Li.c_query) :
    level list =
  let open Runners in
  let c interp lts = (interp, fun () -> Ok (run_c_level (counted interp (lts ())) ~fuel q)) in
  let l interp lts = (interp, fun () -> run_l_level (counted interp (lts ())) ~fuel q) in
  let m interp lts = (interp, fun () -> run_m_level (counted interp (lts ())) ~fuel q) in
  let asm interp lts = (interp, fun () -> run_a_level (counted interp (lts ())) ~fuel q) in
  List.map
    (fun (level, (interp, run)) -> { level; interp; outcome = run_interp interp run })
    [
      ("clight1", c "clight" (fun () -> Cfrontend.Clight.semantics ~symbols a.clight1));
      ( "clight2",
        c "clight" (fun () -> Cfrontend.Clight.semantics ~mode:`Temp_params ~symbols a.clight2) );
      ("csharpminor", c "csharpminor" (fun () -> Cfrontend.Csharpminor.semantics ~symbols a.csharpminor));
      ("cminor", c "cminor" (fun () -> Middle.Cminor.semantics ~symbols a.cminor));
      ("cminorsel", c "cminorsel" (fun () -> Middle.Cminorsel.semantics ~symbols a.cminorsel));
      ("rtl_gen", c "rtl" (fun () -> Middle.Rtl.semantics ~symbols a.rtl_gen));
      ("rtl_opt", c "rtl" (fun () -> Middle.Rtl.semantics ~symbols a.rtl));
      ("ltl", l "ltl" (fun () -> Backend.Ltl.semantics ~symbols a.ltl));
      ("ltl_tunneled", l "ltl" (fun () -> Backend.Ltl.semantics ~symbols a.ltl_tunneled));
      ("linear", l "linear" (fun () -> Backend.Linear.semantics ~symbols a.linear));
      ("linear_clean", l "linear" (fun () -> Backend.Linear.semantics ~symbols a.linear_clean));
      ("mach", m "mach" (fun () -> Backend.Mach.semantics ~symbols a.mach));
      ("asm", asm "asm" (fun () -> Backend.Asm.semantics ~symbols a.asm));
    ]

(** [Core.Coexec.check]: source Clight after SimplLocals against the
    Asm program, under [cc_ca] in both directions (paper, Fig. 6). *)
let coexec ~fuel ~symbols (a : Compiler.artifacts) (q : Li.c_query) =
  span "coexec" (fun () ->
      Core.Coexec.check ~fuel
        ~l1:(Cfrontend.Clight.semantics ~mode:`Temp_params ~symbols a.clight2)
        ~l2:(Backend.Asm.semantics ~symbols a.asm)
        ~cc_in:Runners.cc_ca ~cc_out:Runners.cc_ca
        ~oracle:(fun _ -> None)
        q)

(** [Driver.Linking.separate_compilation_experiment]: the horizontal
    composition of the units' Clight semantics against their separately
    compiled, linked Asm (paper, Cor. 3.9). *)
let hcomp ~fuel units ~query =
  span "hcomp" (fun () ->
      Driver.Linking.separate_compilation_experiment ~fuel units ~query)

(** Retired instructions: steps of the one-instruction-per-step Asm
    interpreter, [Some n] when the run finishes within [fuel]. *)
let asm_retired ~fuel ~symbols (asm : Backend.Asm.program) q : int option =
  let n = ref 0 in
  match Runners.run_a_level (step_counter n (Backend.Asm.semantics_naive ~symbols asm)) ~fuel q with
  | Ok (Lts.Final _) -> Some !n
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The compile service                                                *)
(* ------------------------------------------------------------------ *)

let engine cache ~source =
  span "engine" (fun () ->
      Service.Engine.compile_cached cache ~source ~optimize:true ())

let cache_get cache ~key ~pass ~opts =
  span "cache.get" (fun () -> Service.Cache.get cache ~key ~pass ~opts)

let cache_put cache ~key ~pass ~opts ~payload =
  span "cache.put" (fun () -> Service.Cache.put cache ~key ~pass ~opts ~payload)

let request ~socket req =
  span "request" (fun () -> Service.Serve.request ~connect_wait_us:0. ~socket req)

(* ------------------------------------------------------------------ *)
(* Self time from the span forest                                     *)
(* ------------------------------------------------------------------ *)

(** Self time (µs) per layer span, summed over a forest. A layer's self
    time is its duration minus the durations of the layer spans nearest
    below it; spans that are not layers (the interpreters' [run:*]
    spans) count toward the layer that encloses them. *)
let self_times ~is_layer (roots : Obs.Trace.span list) :
    (string, float ref) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  let rec layers_below (sp : Obs.Trace.span) =
    List.fold_left
      (fun acc (c : Obs.Trace.span) ->
        if is_layer c.name then begin
          visit c;
          acc +. c.dur_us
        end
        else acc +. layers_below c)
      0. sp.children
  and visit (sp : Obs.Trace.span) =
    let inner = layers_below sp in
    let c = cell tbl sp.name 0. in
    c := !c +. Float.max 0. (sp.dur_us -. inner)
  in
  List.iter
    (fun (sp : Obs.Trace.span) ->
      if is_layer sp.name then visit sp else ignore (layers_below sp))
    roots;
  tbl
