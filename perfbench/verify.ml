(** One verification: compile a program, run it at all thirteen levels,
    check every level against the Clight reference, co-execute Clight
    and Asm under [cc_ca], and check the known answer. A run that
    exhausts the fuel makes the verdict inconclusive, decided from the
    run outcomes alone. *)

open Iface
module Lts = Core.Smallstep
module Runners = Driver.Runners

type verdict = Pass | Inconclusive | Failed of string

type result = {
  verdict : verdict;
  compile_us : float;  (** 0 when the operation does not compile alone *)
  stmts : int;  (** Clight statements compiled *)
}

(** The fuel of every run, in steps: low enough that a program that
    exhausts it costs tens of milliseconds, not seconds (README.md). *)
let fuel = 20_000

let failed fmt = Printf.ksprintf (fun s -> Failed s) fmt

let answer (o : Runners.c_outcome) : int32 option =
  match o with
  | Lts.Final (_, r) -> (
    match r.Li.cr_res with Memory.Values.Vint n -> Some n | _ -> None)
  | _ -> None

let check_answer ~expect (o : Runners.c_outcome) =
  match expect with
  | None -> Pass
  | Some n -> (
    match answer o with
    | Some m when Int32.equal m n -> Pass
    | _ ->
      failed "known answer %ld, reference gave %s" n
        (Format.asprintf "%a" Runners.pp_c_outcome o))

let out_of_fuel (l : Layer.level) =
  match l.outcome with Ok (Lts.Out_of_fuel _) -> true | _ -> false

let now = Obs.now_us

let program (p : Corpus.program) : result =
  let t0 = now () in
  let compiled = Layer.compile p.src in
  let compile_us = now () -. t0 in
  match compiled with
  | Error f ->
    {
      verdict = failed "compile: %s" (Support.Diagnostics.to_string f.fail_diag);
      compile_us;
      stmts = 0;
    }
  | Ok arts ->
    let stmts = (Driver.Sizes.clight arts.clight1).size in
    let symbols = Ast.prog_defs_names arts.clight1 in
    let verdict =
      match Runners.main_query ~symbols ~defs:arts.clight1 () with
      | None -> failed "no query for main"
      | Some q -> (
        let levels = Layer.run_levels ~fuel ~symbols arts q in
        match List.find_opt (fun l -> Result.is_error l.Layer.outcome) levels with
        | Some { level; outcome = Error e; _ } -> failed "%s: level error: %s" level e
        | _ ->
          if List.exists out_of_fuel levels then Inconclusive
          else
            let reference =
              match (List.hd levels).outcome with Ok o -> o | Error _ -> assert false
            in
            match
              List.find_opt
                (fun (l : Layer.level) ->
                  match l.outcome with
                  | Ok o -> not (Runners.outcome_refines reference o)
                  | Error _ -> false)
                levels
            with
            | Some l -> failed "%s does not refine the Clight reference" l.level
            | None -> (
              match Layer.coexec ~fuel ~symbols arts q with
              | Core.Coexec.Fail msg -> failed "coexec: %s" msg
              | Core.Coexec.Pass -> check_answer ~expect:p.expect reference))
    in
    { verdict; compile_us; stmts }

(** The call [entry(args)] on the linked units, as a C query over the
    shared symbol table. *)
let pair_query (pr : Corpus.pair) units symbols : Li.c_query option =
  match Ast.link_list ~internal_sig:Cfrontend.Csyntax.fn_sig units with
  | Error _ -> None
  | Ok linked -> (
    let ge = Genv.globalenv ~symbols linked in
    match
      ( Genv.find_symbol ge (Support.Ident.intern pr.entry),
        Genv.init_mem ~symbols linked )
    with
    | Some b, Some m ->
      Some
        {
          Li.cq_vf = Memory.Values.Vptr (b, 0);
          cq_sg =
            {
              Memory.Mtypes.sig_args = List.map (fun _ -> Memory.Mtypes.Tint) pr.args;
              sig_res = Some Memory.Mtypes.Tint;
            };
          cq_args = List.map (fun n -> Memory.Values.Vint n) pr.args;
          cq_mem = m;
        }
    | _ -> None)

(** Thm 3.5 / Cor. 3.9 on a unit pair: the horizontal composition of
    the Clight units and the linked Asm must both give the known
    answer. *)
let pair (pr : Corpus.pair) : result =
  let units = List.map Layer.parse pr.units in
  let verdict =
    match Layer.hcomp ~fuel units ~query:(pair_query pr units) with
    | Error e -> failed "%s: %s" pr.pair_name e
    | Ok e -> (
      match (e.exp_composed, e.exp_linked) with
      | Lts.Out_of_fuel _, _ | _, Lts.Out_of_fuel _ -> Inconclusive
      | c, l ->
        if not e.exp_agree then failed "%s: composition and linking disagree" pr.pair_name
        else
          match check_answer ~expect:(Some pr.pair_expect) c with
          | Pass -> check_answer ~expect:(Some pr.pair_expect) l
          | v -> v)
  in
  { verdict; compile_us = 0.; stmts = 0 }

(* ------------------------------------------------------------------ *)
(* Exact counts                                                       *)
(* ------------------------------------------------------------------ *)

(** Static and dynamic size of one compiled program: Clight statements,
    RTL and Asm instructions, and the instructions retired by the naive
    Asm interpreter when the program finishes within [fuel] of them. *)
type facts = {
  functions : int;
  stmts : int;
  rtl_size : int;
  asm_size : int;
  retired : int;
}

let facts src : facts option =
  match Driver.Compiler.compile_source_diag src with
  | Error _ -> None
  | Ok arts ->
    let symbols = Ast.prog_defs_names arts.clight1 in
    let retired =
      match Runners.main_query ~symbols ~defs:arts.clight1 () with
      | None -> 0
      | Some q ->
        Option.value ~default:0
          (Layer.asm_retired ~fuel ~symbols arts.asm q)
    in
    let asm = Driver.Sizes.asm arts.asm in
    Some
      {
        functions = asm.functions;
        stmts = (Driver.Sizes.clight arts.clight1).size;
        rtl_size = (Driver.Sizes.rtl arts.rtl).size;
        asm_size = asm.size;
        retired;
      }

(* ------------------------------------------------------------------ *)
(* The stratified draw                                                *)
(* ------------------------------------------------------------------ *)

(** Steps the Clight reference takes on [main] of the parsed source,
    [fuel] when it runs out. *)
let reference_steps src : int =
  let p = Layer.parse src in
  let symbols = Ast.prog_defs_names p in
  match Runners.main_query ~symbols ~defs:p () with
  | None -> 0
  | Some q -> (
    let n = ref 0 in
    match Runners.run_c_level (Layer.step_counter n (Cfrontend.Clight.semantics ~symbols p)) ~fuel q with
    | Lts.Out_of_fuel _ -> fuel
    | _ -> !n)

(** The Clight reference's answer on [main] of the parsed source. *)
let reference_answer src : int32 option =
  let p = Layer.parse src in
  let symbols = Ast.prog_defs_names p in
  Option.bind (Runners.main_query ~symbols ~defs:p ()) (fun q ->
      answer (Runners.run_c_level (Cfrontend.Clight.semantics ~symbols p) ~fuel q))

(** Strata of the draw by the Clight reference's step count: upper
    bounds, and the share of [Fuzz.Gen.gen_program] draws that fall in
    each (per mille, measured over 10000 draws, seeds 1 to 5). The last
    stratum holds the programs that exhaust the fuel. *)
let strata = [| (30, 453); (100, 186); (300, 165); (1000, 98); (3000, 50); (fuel, 25); (max_int, 23) |]

let stratum steps =
  let rec go i = if steps < fst strata.(i) then i else go (i + 1) in
  if steps >= fuel then Array.length strata - 1 else go 0

(** [n] generated programs whose strata counts are the natural shares
    of [n], drawn in seeded order. Every seed gets the same mix of
    cheap, long-running and budget-bound programs. *)
let stratified_draw ~seed n : Corpus.program list =
  let want = Array.map (fun (_, permille) -> n * permille / 1000) strata in
  want.(0) <- want.(0) + (n - Array.fold_left ( + ) 0 want);
  let got = Array.map (fun _ -> []) strata in
  let missing () = Array.exists2 (fun w g -> List.length g < w) want got in
  let i = ref 0 in
  while missing () do
    if !i > 100 * n then failwith "stratified_draw: a stratum does not fill";
    let p = Corpus.generated ~seed !i in
    let k = stratum (reference_steps p.src) in
    if List.length got.(k) < want.(k) then got.(k) <- p :: got.(k);
    incr i
  done;
  List.concat_map List.rev (Array.to_list got)
