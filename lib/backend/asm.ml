(** Asm: the target assembly language, over the full architectural
    register file (CompCert's [Asm], link-register style).

    The program counter holds code pointers [Vptr (fb, pos)] where [fb]
    is the block of a function symbol and [pos] an instruction index.
    [Pcall] sets the return-address register; function prologues
    ([Pallocframe]) allocate the frame and spill the back link and RA;
    epilogues ([Pfreeframe]) restore them. Asm uses the interface [A]:
    queries and answers are a register file plus memory (paper §3.2 —
    "the semantics of assembly is formulated exclusively in terms of the
    language interface A", Appendix A.6).

    Following CompCertO, an activation is complete when control returns
    to the address that the environment installed in [RA] at entry. *)

open Support
open Memory
open Memory.Values
open Memory.Mtypes
open Memory.Memdata
open Middle
open Iface
open Iface.Li

type label = int

type ros = Rreg of preg | Rsymbol of Ident.t

type instruction =
  | Pallocframe of int * int * int  (** size, ofs_link, ofs_ra *)
  | Pfreeframe of int * int * int  (** size, ofs_link, ofs_ra *)
  | Pop of Op.operation * preg list * preg
  | Pload of chunk * Op.addressing * preg list * preg
  | Pstore of chunk * Op.addressing * preg list * preg
  | Plabel of label
  | Pjmp of label
  | Pjcc of Op.condition * preg list * label
  | Pcall of ros
  | Pjmp_tail of ros  (** tail jump to another function *)
  | Pret

type coq_function = { fn_sig : signature; fn_code : instruction array }

type program = (coq_function, unit) Ast.program

let internal_sig f = f.fn_sig

(** Syntactic linking of Asm programs: the [+] operator of Theorem 3.5. *)
let link p1 p2 = Ast.link ~internal_sig p1 p2

let find_label (lbl : label) (code : instruction array) : int option =
  let rec go i =
    if i >= Array.length code then None
    else match code.(i) with Plabel l when l = lbl -> Some (i + 1) | _ -> go (i + 1)
  in
  go 0

(** {1 Semantics} *)

type state = { rs : Pregfile.t; m : Mem.t }

type genv = (coq_function, unit) Genv.t

let genv_view (ge : genv) : Op.genv_view =
  { Op.find_symbol = (fun id -> Genv.find_symbol ge id) }

let ros_address (ge : genv) ros (rs : Pregfile.t) =
  match ros with
  | Rreg r -> Some (Pregfile.get r rs)
  | Rsymbol id -> (
    match Genv.find_symbol ge id with Some b -> Some (Vptr (b, 0)) | None -> None)

let chunk_of_typ = function
  | Tint -> Mint32
  | Tlong -> Mint64
  | Tfloat -> Mfloat64
  | Tsingle -> Mfloat32
  | Tany64 -> Many64

(* One instruction. [fb] is the current function's block, [pos] the index
   of the instruction being executed. *)
let exec_instr (ge : genv) (f : coq_function) (fb : block) (pos : int)
    (i : instruction) (rs : Pregfile.t) (m : Mem.t) : (Pregfile.t * Mem.t) option =
  let next rs = Some (Pregfile.set PC (Vptr (fb, pos + 1)) rs, m) in
  let next_m rs m = Some (Pregfile.set PC (Vptr (fb, pos + 1)) rs, m) in
  let goto lbl rs =
    match find_label lbl f.fn_code with
    | Some pos' -> Some (Pregfile.set PC (Vptr (fb, pos')) rs, m)
    | None -> None
  in
  match i with
  | Pallocframe (sz, ofs_link, ofs_ra) -> (
    let m1, b = Mem.alloc m 0 sz in
    let sp' = Vptr (b, 0) in
    match Mem.store Mint64 m1 b ofs_link (Pregfile.get SP rs) with
    | None -> None
    | Some m2 -> (
      match Mem.store Mint64 m2 b ofs_ra (Pregfile.get RA rs) with
      | None -> None
      | Some m3 -> next_m (Pregfile.set SP sp' rs) m3))
  | Pfreeframe (sz, ofs_link, ofs_ra) -> (
    match Pregfile.get SP rs with
    | Vptr (b, 0) -> (
      match (Mem.load Mint64 m b ofs_link, Mem.load Mint64 m b ofs_ra) with
      | Some link, Some ra -> (
        match Mem.free m b 0 sz with
        | Some m' ->
          next_m (Pregfile.set SP link (Pregfile.set RA ra rs)) m'
        | None -> None)
      | _ -> None)
    | _ -> None)
  | Pop (op, args, res) -> (
    let vl = List.map (fun r -> Pregfile.get r rs) args in
    match Op.eval_operation (genv_view ge) (Pregfile.get SP rs) op vl m with
    | Some v -> next (Pregfile.set res v rs)
    | None -> None)
  | Pload (chunk, addr, args, dst) -> (
    let vl = List.map (fun r -> Pregfile.get r rs) args in
    match Op.eval_addressing (genv_view ge) (Pregfile.get SP rs) addr vl with
    | Some va -> (
      match Mem.loadv chunk m va with
      | Some v -> next (Pregfile.set dst v rs)
      | None -> None)
    | None -> None)
  | Pstore (chunk, addr, args, src) -> (
    let vl = List.map (fun r -> Pregfile.get r rs) args in
    match Op.eval_addressing (genv_view ge) (Pregfile.get SP rs) addr vl with
    | Some va -> (
      match Mem.storev chunk m va (Pregfile.get src rs) with
      | Some m' -> next_m rs m'
      | None -> None)
    | None -> None)
  | Plabel _ -> next rs
  | Pjmp lbl -> goto lbl rs
  | Pjcc (cond, args, lbl) -> (
    let vl = List.map (fun r -> Pregfile.get r rs) args in
    match Op.eval_condition cond vl m with
    | Some true -> goto lbl rs
    | Some false -> next rs
    | None -> None)
  | Pcall ros -> (
    match ros_address ge ros rs with
    | Some vf ->
      let rs = Pregfile.set RA (Vptr (fb, pos + 1)) rs in
      Some (Pregfile.set PC vf rs, m)
    | None -> None)
  | Pjmp_tail ros -> (
    match ros_address ge ros rs with
    | Some vf -> Some (Pregfile.set PC vf rs, m)
    | None -> None)
  | Pret -> Some (Pregfile.set PC (Pregfile.get RA rs) rs, m)

(** The naive dispatcher: one [Genv] lookup plus one instruction match
    per step. Kept as the executable reference the direct-threaded
    dispatcher below is tested against in lockstep. *)
let step (ge : genv) (s : state) : (Core.Events.trace * state) list =
  match Pregfile.get PC s.rs with
  | Vptr (fb, pos) -> (
    match Genv.find_funct_ptr ge fb with
    | Some (Ast.Internal f) when pos >= 0 && pos < Array.length f.fn_code -> (
      match exec_instr ge f fb pos f.fn_code.(pos) s.rs s.m with
      | Some (rs', m') -> [ (Core.Events.e0, { rs = rs'; m = m' }) ]
      | None -> [])
    | _ -> [])
  | _ -> []

(** {2 Pre-decoded, direct-threaded dispatch}

    [step] re-matches [f.fn_code.(pos)], re-resolves the function block
    in the global environment, re-scans for labels and re-allocates the
    successor PC value on {e every} step. The fast path decodes each
    function once into an array of closures (superinstructions): operand
    register indices, label targets, symbol addresses and successor PC
    values are all resolved at decode time, so executing an instruction
    is one array index plus one closure call. Decoded functions are
    memoized in a per-[semantics] decode cache keyed by function block
    (the shape the second-backend roadmap item needs: one cache per
    backend signature); the global hit/miss counters feed the
    [asm.decode_cache.*] bench gauges.

    The threaded core executes over a {e flat mutable register file}: a
    closure writes the run's single register array in place and returns
    only the successor memory, so a register-to-register step allocates
    nothing at all. Two invariants make this safe under the LTS
    discipline:

    - {e no write before fallibility is resolved}: a closure performs no
      register write until every way it can get stuck has been ruled
      out, so a stuck step leaves the state bit-identical and the run
      loop's subsequent [at_external]/[final] probes see the pre-step
      registers;
    - {e copy-on-observe}: the LTS hands out {!Pregfile.copy} snapshots
      at every observation point ([init], [at_external],
      [after_external], [final]) and never leaks the live array into a
      query or reply, so composition operators ([⊕], layering) and the
      co-execution harness can retain boundary payloads without seeing
      later mutations. *)

(** A decoded instruction: mutates the register file in place and
    returns the successor memory, or [None] (stuck) having written
    nothing. *)
type exec = Pregfile.t -> Mem.t -> Mem.t option

type decoded = exec array

let ipc = preg_index PC
let isp = preg_index SP
let ira = preg_index RA

(* Operand fetch specialized on arity, so the common 0–3 argument cases
   build their value list without an intermediate index list. *)
let fetch_args (args : preg list) : Pregfile.t -> value list =
  match List.map preg_index args with
  | [] -> fun _ -> []
  | [ a ] -> fun rs -> [ rs.(a) ]
  | [ a; b ] -> fun rs -> [ rs.(a); rs.(b) ]
  | [ a; b; c ] -> fun rs -> [ rs.(a); rs.(b); rs.(c) ]
  | idx -> fun rs -> List.map (fun i -> rs.(i)) idx

let decode_instr (gv : Op.genv_view) (ge : genv) (f : coq_function)
    (fb : block) (pos : int) (i : instruction) : exec =
  let pc_next = Vptr (fb, pos + 1) in
  let stuck : exec = fun _ _ -> None in
  match i with
  | Pallocframe (sz, ofs_link, ofs_ra) ->
    fun rs m -> (
      match Mem.alloc_frame m sz ofs_link rs.(isp) ofs_ra rs.(ira) with
      | Some (m', b) ->
        rs.(isp) <- Vptr (b, 0);
        rs.(ipc) <- pc_next;
        Some m'
      | None -> None)
  | Pfreeframe (sz, ofs_link, ofs_ra) ->
    fun rs m -> (
      match rs.(isp) with
      | Vptr (b, 0) -> (
        match (Mem.load Mint64 m b ofs_link, Mem.load Mint64 m b ofs_ra) with
        | Some link, Some ra -> (
          match Mem.free m b 0 sz with
          | Some m' ->
            rs.(isp) <- link;
            rs.(ira) <- ra;
            rs.(ipc) <- pc_next;
            Some m'
          | None -> None)
        | _ -> None)
      | _ -> None)
  (* Superinstructions: the operand shapes the register allocator emits
     most (moves, constants, two-operand integer arithmetic, reg/stack
     addressing) get dedicated closures that skip the operand list and
     the [eval_operation]/[eval_addressing] dispatch. Each one computes
     exactly what the generic arm below computes for the same shape —
     the lockstep suite checks this against the naive interpreter. *)
  | Pop (Op.Omove, [ a ], res) ->
    let ia = preg_index a and ires = preg_index res in
    fun rs m ->
      rs.(ires) <- rs.(ia);
      rs.(ipc) <- pc_next;
      Some m
  | Pop (Op.Ointconst n, [], res) ->
    let v = Vint n and ires = preg_index res in
    fun rs m ->
      rs.(ires) <- v;
      rs.(ipc) <- pc_next;
      Some m
  | Pop (Op.Olongconst n, [], res) ->
    let v = Vlong n and ires = preg_index res in
    fun rs m ->
      rs.(ires) <- v;
      rs.(ipc) <- pc_next;
      Some m
  | Pop (Op.Oaddimm n, [ a ], res) ->
    let vn = Vint n and ia = preg_index a and ires = preg_index res in
    fun rs m ->
      rs.(ires) <- Values.add rs.(ia) vn;
      rs.(ipc) <- pc_next;
      Some m
  | Pop (Op.Oadd, [ a; b ], res) ->
    let ia = preg_index a and ib = preg_index b and ires = preg_index res in
    fun rs m ->
      rs.(ires) <- Values.add rs.(ia) rs.(ib);
      rs.(ipc) <- pc_next;
      Some m
  | Pop (Op.Osub, [ a; b ], res) ->
    let ia = preg_index a and ib = preg_index b and ires = preg_index res in
    fun rs m ->
      rs.(ires) <- Values.sub rs.(ia) rs.(ib);
      rs.(ipc) <- pc_next;
      Some m
  | Pop (Op.Omul, [ a; b ], res) ->
    let ia = preg_index a and ib = preg_index b and ires = preg_index res in
    fun rs m ->
      rs.(ires) <- Values.mul rs.(ia) rs.(ib);
      rs.(ipc) <- pc_next;
      Some m
  | Pop (Op.Olongofint, [ a ], res) ->
    let ia = preg_index a and ires = preg_index res in
    fun rs m ->
      rs.(ires) <- Values.longofint rs.(ia);
      rs.(ipc) <- pc_next;
      Some m
  | Pop (Op.Oaddlimm n, [ a ], res) ->
    let vn = Vlong n and ia = preg_index a and ires = preg_index res in
    fun rs m ->
      rs.(ires) <- Values.addl rs.(ia) vn;
      rs.(ipc) <- pc_next;
      Some m
  | Pop (Op.Omullimm n, [ a ], res) ->
    let vn = Vlong n and ia = preg_index a and ires = preg_index res in
    fun rs m ->
      rs.(ires) <- Values.mull rs.(ia) vn;
      rs.(ipc) <- pc_next;
      Some m
  | Pop (op, args, res) ->
    let fetch = fetch_args args in
    let ires = preg_index res in
    fun rs m -> (
      match Op.eval_operation gv rs.(isp) op (fetch rs) m with
      | Some v ->
        rs.(ires) <- v;
        rs.(ipc) <- pc_next;
        Some m
      | None -> None)
  | Pload (chunk, Op.Aindexed ofs, [ a ], dst) ->
    let ia = preg_index a and idst = preg_index dst in
    fun rs m -> (
      match rs.(ia) with
      | Vptr (b, o) -> (
        match Mem.load chunk m b (o + ofs) with
        | Some v ->
          rs.(idst) <- v;
          rs.(ipc) <- pc_next;
          Some m
        | None -> None)
      | _ -> None)
  | Pload (chunk, Op.Ainstack ofs, [], dst) ->
    let idst = preg_index dst in
    fun rs m -> (
      match rs.(isp) with
      | Vptr (b, base) -> (
        match Mem.load chunk m b (base + ofs) with
        | Some v ->
          rs.(idst) <- v;
          rs.(ipc) <- pc_next;
          Some m
        | None -> None)
      | _ -> None)
  | Pload (chunk, Op.Aindexed2 ofs, [ a; b ], dst) ->
    (* Matches the generic arm exactly: [eval_addressing] on [Aindexed2]
       is [addl (addl v1 v2) ofs] and never gets stuck on two args. *)
    let ia = preg_index a and ib = preg_index b and idst = preg_index dst in
    let vofs = Vlong (Int64.of_int ofs) in
    fun rs m -> (
      match Mem.loadv chunk m (Values.addl (Values.addl rs.(ia) rs.(ib)) vofs) with
      | Some v ->
        rs.(idst) <- v;
        rs.(ipc) <- pc_next;
        Some m
      | None -> None)
  | Pload (chunk, addr, args, dst) ->
    let fetch = fetch_args args in
    let idst = preg_index dst in
    fun rs m -> (
      match Op.eval_addressing gv rs.(isp) addr (fetch rs) with
      | Some va -> (
        match Mem.loadv chunk m va with
        | Some v ->
          rs.(idst) <- v;
          rs.(ipc) <- pc_next;
          Some m
        | None -> None)
      | None -> None)
  | Pstore (chunk, Op.Aindexed ofs, [ a ], src) ->
    let ia = preg_index a and isrc = preg_index src in
    fun rs m -> (
      match rs.(ia) with
      | Vptr (b, o) -> (
        match Mem.store chunk m b (o + ofs) rs.(isrc) with
        | Some m' ->
          rs.(ipc) <- pc_next;
          Some m'
        | None -> None)
      | _ -> None)
  | Pstore (chunk, Op.Ainstack ofs, [], src) ->
    let isrc = preg_index src in
    fun rs m -> (
      match rs.(isp) with
      | Vptr (b, base) -> (
        match Mem.store chunk m b (base + ofs) rs.(isrc) with
        | Some m' ->
          rs.(ipc) <- pc_next;
          Some m'
        | None -> None)
      | _ -> None)
  | Pstore (chunk, Op.Aindexed2 ofs, [ a; b ], src) ->
    let ia = preg_index a and ib = preg_index b and isrc = preg_index src in
    let vofs = Vlong (Int64.of_int ofs) in
    fun rs m -> (
      match
        Mem.storev chunk m (Values.addl (Values.addl rs.(ia) rs.(ib)) vofs)
          rs.(isrc)
      with
      | Some m' ->
        rs.(ipc) <- pc_next;
        Some m'
      | None -> None)
  | Pstore (chunk, addr, args, src) ->
    let fetch = fetch_args args in
    let isrc = preg_index src in
    fun rs m -> (
      match Op.eval_addressing gv rs.(isp) addr (fetch rs) with
      | Some va -> (
        match Mem.storev chunk m va rs.(isrc) with
        | Some m' ->
          rs.(ipc) <- pc_next;
          Some m'
        | None -> None)
      | None -> None)
  | Plabel _ ->
    fun rs m ->
      rs.(ipc) <- pc_next;
      Some m
  | Pjmp lbl -> (
    match find_label lbl f.fn_code with
    | Some pos' ->
      let target = Vptr (fb, pos') in
      fun rs m ->
        rs.(ipc) <- target;
        Some m
    | None -> stuck)
  | Pjcc (cond, args, lbl) ->
    (* The label resolves at decode time, but a missing label only
       sticks the taken branch — the fall-through must still work,
       exactly as in [exec_instr]. *)
    let eval_cond =
      match (cond, args) with
      | Op.Ccompimm (c, n), [ a ] ->
        let vn = Vint n and ia = preg_index a in
        fun rs _m -> Values.cmp_bool c rs.(ia) vn
      | Op.Ccomp c, [ a; b ] ->
        let ia = preg_index a and ib = preg_index b in
        fun rs _m -> Values.cmp_bool c rs.(ia) rs.(ib)
      | _ ->
        let fetch = fetch_args args in
        fun rs m -> Op.eval_condition cond (fetch rs) m
    in
    let target =
      match find_label lbl f.fn_code with
      | Some pos' -> Some (Vptr (fb, pos'))
      | None -> None
    in
    fun rs m -> (
      match eval_cond rs m with
      | Some true -> (
        match target with
        | Some t ->
          rs.(ipc) <- t;
          Some m
        | None -> None)
      | Some false ->
        rs.(ipc) <- pc_next;
        Some m
      | None -> None)
  | Pcall ros -> (
    match ros with
    | Rsymbol id -> (
      match Genv.find_symbol ge id with
      | Some b ->
        let vf = Vptr (b, 0) in
        fun rs m ->
          rs.(ira) <- pc_next;
          rs.(ipc) <- vf;
          Some m
      | None -> stuck)
    | Rreg r ->
      let ir = preg_index r in
      (* Read the callee address before overwriting RA: with an in-place
         register file, [Pcall RA] must call the OLD return address
         (matching [exec_instr], which resolves [ros] first). *)
      fun rs m ->
        let vf = rs.(ir) in
        rs.(ira) <- pc_next;
        rs.(ipc) <- vf;
        Some m)
  | Pjmp_tail ros -> (
    match ros with
    | Rsymbol id -> (
      match Genv.find_symbol ge id with
      | Some b ->
        let vf = Vptr (b, 0) in
        fun rs m ->
          rs.(ipc) <- vf;
          Some m
      | None -> stuck)
    | Rreg r ->
      let ir = preg_index r in
      fun rs m ->
        rs.(ipc) <- rs.(ir);
        Some m)
  | Pret ->
    fun rs m ->
      rs.(ipc) <- rs.(ira);
      Some m

let decode_function (ge : genv) (fb : block) (f : coq_function) : decoded =
  let gv = genv_view ge in
  Array.mapi (fun pos i -> decode_instr gv ge f fb pos i) f.fn_code

(* Global decode-cache counters: every consultation (including the
   same-block fast path) counts as a lookup; a miss decodes. The bench
   derives the hit-rate gauge from these. *)
let decode_cache_lookups = ref 0
let decode_cache_misses = ref 0
let decode_cache_stats () = (!decode_cache_lookups, !decode_cache_misses)

let reset_decode_cache_stats () =
  decode_cache_lookups := 0;
  decode_cache_misses := 0

type decode_cache = {
  dc_tbl : (block, decoded option) Hashtbl.t;
      (** [None] caches "this block is not internal code" *)
  mutable dc_last_fb : block;  (** -1 when empty; blocks start at 1 *)
  mutable dc_last : decoded option;
}

let make_decode_cache () : decode_cache =
  { dc_tbl = Hashtbl.create 16; dc_last_fb = -1; dc_last = None }

let decoded_at (ge : genv) (dc : decode_cache) (fb : block) : decoded option =
  incr decode_cache_lookups;
  if fb = dc.dc_last_fb then dc.dc_last
  else begin
    let d =
      match Hashtbl.find_opt dc.dc_tbl fb with
      | Some d -> d
      | None ->
        incr decode_cache_misses;
        let d =
          match Genv.find_funct_ptr ge fb with
          | Some (Ast.Internal f) -> Some (decode_function ge fb f)
          | _ -> None
        in
        Hashtbl.add dc.dc_tbl fb d;
        d
    in
    dc.dc_last_fb <- fb;
    dc.dc_last <- d;
    d
  end

type full_state = { asm_init_ra : value; asm_st : state }

(* PC-shaped value equality, specialized to avoid the polymorphic
   [caml_compare] the per-step final/at-external tests would otherwise
   pay. Agrees with [(=)] on every case, including its IEEE treatment
   of float payloads (NaN unequal to itself). *)
let pc_eq (a : value) (b : value) : bool =
  match (a, b) with
  | Vptr (b1, o1), Vptr (b2, o2) -> b1 = b2 && o1 = o2
  | Vint x, Vint y -> Int32.equal x y
  | Vlong x, Vlong y -> Int64.equal x y
  | Vundef, Vundef -> true
  | Vfloat x, Vfloat y -> x = y
  | Vsingle x, Vsingle y -> x = y
  | _ -> false

let semantics_gen ~(threaded : bool) ~(symbols : Ident.t list) (p : program) :
    (full_state, a_query, a_reply, a_query, a_reply) Core.Smallstep.lts =
  let ge = Genv.globalenv ~symbols p in
  let dc = make_decode_cache () in
  (* A state is at an interaction point when the PC leaves this unit's
     internal code: either at the environment return address (final) or
     at a block this unit does not define internally (external call).
     The threaded dispatcher answers "is this internal code?" from the
     decode cache, so the per-step interaction test costs no [Genv]
     descent either. *)
  let is_internal v =
    match v with
    | Vptr (b, 0) ->
      if threaded then Option.is_some (decoded_at ge dc b)
      else (
        match Genv.find_funct_ptr ge b with
        | Some (Ast.Internal _) -> true
        | _ -> false)
    | _ -> false
  in
  (* The threaded step writes the register file in place: the run owns
     its register array exclusively between observation points, so a
     register-only step reuses both state records and the singleton
     transition list is the only allocation. One step retires one
     instruction in both dispatchers, so fuel bounds work here as at
     every other level. *)
  let step_full =
    if threaded then fun s ->
      match s.asm_st.rs.(ipc) with
      | Vptr (fb, pos) -> (
        match decoded_at ge dc fb with
        | Some code when pos >= 0 && pos < Array.length code -> (
          match code.(pos) s.asm_st.rs s.asm_st.m with
          | Some m' ->
            [ ( Core.Events.e0,
                if m' == s.asm_st.m then s
                else { s with asm_st = { rs = s.asm_st.rs; m = m' } } ) ]
          | None -> [])
        | _ -> [])
      | _ -> []
    else fun s ->
      List.map (fun (t, st) -> (t, { s with asm_st = st })) (step ge s.asm_st)
  in
  {
    Core.Smallstep.name = "Asm";
    dom = (fun q -> is_internal (Pregfile.get PC q.aq_rs));
    (* Copy-on-observe, inbound: the query's register file may be shared
       (sibling components in a [⊕]-composition marshal queries out of
       their own suspended state, and [Pregfile.init] itself is a shared
       array), so the activation takes a private copy it may then mutate. *)
    init = (fun q -> [ { asm_init_ra = Pregfile.get RA q.aq_rs;
                         asm_st = { rs = Pregfile.copy q.aq_rs;
                                    m = q.aq_mem } } ]);
    step = step_full;
    at_external =
      (fun s ->
        (* An external call is a control transfer to the base of a global
           symbol block this unit does not define internally. Return
           addresses point into the middle of code blocks and are excluded;
           garbage PCs are stuck, not external. *)
        let pc = s.asm_st.rs.(ipc) in
        if
          Genv.plausible_funct ge pc
          && (not (is_internal pc))
          && not (pc_eq pc s.asm_init_ra)
        then
          (* Copy-on-observe, outbound: the callee (or environment) must
             see a snapshot, not the live array this run keeps writing. *)
          Some { aq_rs = Pregfile.copy s.asm_st.rs; aq_mem = s.asm_st.m }
        else None);
    after_external =
      (fun s r ->
        [ { s with asm_st = { rs = Pregfile.copy r.ar_rs; m = r.ar_mem } } ]);
    final =
      (fun s ->
        if pc_eq s.asm_st.rs.(ipc) s.asm_init_ra then
          Some { ar_rs = Pregfile.copy s.asm_st.rs; ar_mem = s.asm_st.m }
        else None);
  }

(** The Asm open semantics, on the direct-threaded dispatcher. *)
let semantics ~(symbols : Ident.t list) (p : program) :
    (full_state, a_query, a_reply, a_query, a_reply) Core.Smallstep.lts =
  semantics_gen ~threaded:true ~symbols p

(** The same semantics on the naive per-step dispatcher — the reference
    the differential suite locksteps against [semantics]. *)
let semantics_naive ~(symbols : Ident.t list) (p : program) :
    (full_state, a_query, a_reply, a_query, a_reply) Core.Smallstep.lts =
  semantics_gen ~threaded:false ~symbols p

(** {1 Printing} *)

let pp_ros fmt = function
  | Rreg r -> pp_preg fmt r
  | Rsymbol id -> Ident.pp fmt id

let pp_instruction fmt i =
  let regs fmt rl =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
      pp_preg fmt rl
  in
  match i with
  | Pallocframe (sz, ol, orr) -> Format.fprintf fmt "allocframe %d, %d, %d" sz ol orr
  | Pfreeframe (sz, ol, orr) -> Format.fprintf fmt "freeframe %d, %d, %d" sz ol orr
  | Pop (op, args, res) ->
    Format.fprintf fmt "%a = %a(%a)" pp_preg res Op.pp_operation op regs args
  | Pload (chunk, addr, args, dst) ->
    Format.fprintf fmt "%a = load %a %a(%a)" pp_preg dst pp_chunk chunk
      Op.pp_addressing addr regs args
  | Pstore (chunk, addr, args, src) ->
    Format.fprintf fmt "store %a %a(%a) := %a" pp_chunk chunk Op.pp_addressing
      addr regs args pp_preg src
  | Plabel l -> Format.fprintf fmt "%d:" l
  | Pjmp l -> Format.fprintf fmt "jmp %d" l
  | Pjcc (cond, args, l) ->
    Format.fprintf fmt "j%a(%a) %d" Op.pp_condition cond regs args l
  | Pcall ros -> Format.fprintf fmt "call %a" pp_ros ros
  | Pjmp_tail ros -> Format.fprintf fmt "jmp-tail %a" pp_ros ros
  | Pret -> Format.fprintf fmt "ret"

let pp_function fmt (f : coq_function) =
  Format.fprintf fmt "@[<v>asm function(%a)@," pp_signature f.fn_sig;
  Array.iteri (fun i instr -> Format.fprintf fmt "  %3d: %a@," i pp_instruction instr) f.fn_code;
  Format.fprintf fmt "@]"
