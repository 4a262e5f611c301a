(* Test-only reference: the structural verifier as it stood before its
   per-call state became one record and its two id sets one stamp array —
   two id-set passes, a Hashtbl of labels, closures per call, and the
   arenas built and checked with [Arena.of_block]/[Arena.check].  The
   agreement tests in [test_verifier] hold [Verifier.check_func_arenas] to
   it: the same error list on every input, well-formed or not. *)

open Lslp_ir

type error = { instr : Instr.t option; message : string }

let pp_error ppf e =
  match e.instr with
  | Some i -> Fmt.pf ppf "%s: in `%a`" e.message Printer.pp_instr i
  | None -> Fmt.string ppf e.message

let error_to_string e = Fmt.str "%a" pp_error e

exception Invalid of error list

module Int_table = Lslp_util.Int_table

(* A set of instruction ids for one function, sized from it up front
   instead of grown: a bitmap over the function's id span when its ids
   are dense (the normal case — a few words for hundreds of
   instructions), an [Int_table] for the instruction count otherwise.
   Ids outside the span (operands defined elsewhere) are never members. *)
type id_set =
  | Bits of { lo : int; span : int; bits : Bytes.t }
  | Table of Int_table.t

let id_set (f : Func.t) =
  let n = ref 0 and lo = ref max_int and hi = ref min_int in
  Func.iter_instrs
    (fun (i : Instr.t) ->
      incr n;
      if i.id < !lo then lo := i.id;
      if i.id > !hi then hi := i.id)
    f;
  let n = !n and lo = !lo in
  let span = !hi - lo + 1 in
  if n > 0 && span <= (4 * n) + 1024 then
    Bits { lo; span; bits = Bytes.make ((span + 7) / 8) '\000' }
  else Table (Int_table.create (n + (n / 3) + 1))

let id_mem s id =
  match s with
  | Bits { lo; span; bits } ->
    let o = id - lo in
    o >= 0 && o < span
    && Char.code (Bytes.unsafe_get bits (o lsr 3)) land (1 lsl (o land 7)) <> 0
  | Table t -> Int_table.mem t id

let id_add s id =
  match s with
  | Bits { lo; bits; _ } ->
    let o = id - lo in
    Bytes.set bits (o lsr 3)
      (Char.unsafe_chr (Char.code (Bytes.get bits (o lsr 3)) lor (1 lsl (o land 7))))
  | Table t -> Int_table.set t id 0

let id_clear = function
  | Bits { bits; _ } -> Bytes.fill bits 0 (Bytes.length bits) '\000'
  | Table t -> Int_table.clear t

(* [Instr.value_ty] without the option: an array argument, which has no
   value type, reads as [Void] — callers that must tell it apart ask
   [has_value_ty] first. *)
let has_value_ty (v : Instr.value) =
  match v with
  | Instr.Arg { arg_ty = Instr.Array_arg _; _ } -> false
  | Instr.Arg _ | Instr.Const _ | Instr.Ins _ -> true

let operand_ty (v : Instr.value) =
  match v with
  | Instr.Ins i -> i.Instr.ty
  | Instr.Const c -> Instr.const_ty c
  | Instr.Arg { arg_ty = Instr.Int_arg; _ } -> Types.i64
  | Instr.Arg { arg_ty = Instr.Float_arg; _ } -> Types.f64
  | Instr.Arg { arg_ty = Instr.Array_arg _; _ } -> Types.Void

let check_func_arenas (f : Func.t) =
  let errors = ref [] in
  let err ?instr fmt =
    Fmt.kstr (fun message -> errors := { instr; message } :: !errors) fmt
  in
  let defined = id_set f in
  (* the arguments as parallel arrays; a lookup scans from the last, so a
     duplicated name resolves to its last declaration *)
  let args = Array.of_list f.args in
  let arg_tys = Array.map (fun (a : Instr.arg) -> a.arg_ty) args in
  let lookup_arg name =
    let rec go j =
      if j < 0 || String.equal args.(j).Instr.arg_name name then j
      else go (j - 1)
    in
    go (Array.length args - 1)
  in
  Array.iteri
    (fun j (a : Instr.arg) ->
      let rec seen k =
        k < j && (String.equal args.(k).Instr.arg_name a.arg_name || seen (k + 1))
      in
      if seen 0 then err "duplicate argument name %s" a.arg_name)
    args;
  let seen_ids = id_set f in
  (* Regions are self-contained: values may only be referenced from the
     block that defines them, so [defined] is reset per block and a
     cross-block use reports as use-before-def. *)
  let cur = ref None in
  let check_value (v : Instr.value) =
    match v with
    | Instr.Ins def ->
      if not (id_mem defined def.Instr.id) then
        err ?instr:!cur "use of %s before its definition (or of a value \
                         defined in another block — regions are \
                         self-contained)"
          (Printer.value_to_string v)
    | Instr.Arg a ->
      (match lookup_arg a.arg_name with
       | -1 -> err ?instr:!cur "reference to unknown argument %s" a.arg_name
       | j -> (
         match arg_tys.(j) with
         | Instr.Array_arg _ ->
           err ?instr:!cur "array argument %s used as scalar value" a.arg_name
         | Instr.Int_arg | Instr.Float_arg -> ()))
    | Instr.Const _ -> ()
  in
  let value_ty instr v =
    if not (has_value_ty v) then err ~instr "operand has no value type";
    operand_ty v
  in
  let expect_ty instr what expected v =
    let ty = value_ty instr v in
    if not (Types.equal ty expected) then
      err ~instr "%s: expected %a, got %a" what Types.pp expected Types.pp ty
  in
  let check_address ~counter instr (a : Instr.address) =
    (match lookup_arg a.base with
     | -1 -> err ~instr "unknown array %s" a.base
     | j -> (
       match arg_tys.(j) with
       | Instr.Array_arg elt ->
         if not (Types.equal_scalar elt a.elt) then
           err ~instr "address element type %a does not match array %s (%a)"
             Types.pp_scalar a.elt a.base Types.pp_scalar elt
       | Instr.Int_arg | Instr.Float_arg ->
         err ~instr "%s is not an array argument" a.base));
    if a.access_lanes < 1 then err ~instr "non-positive access width";
    if Types.is_mask_scalar a.elt then
      err ~instr "i1 is not a memory element type (masks never touch memory)";
    List.iter
      (fun (s, _) ->
        let is_counter =
          match counter with Some c -> String.equal c s | None -> false
        in
        if not is_counter then
          match lookup_arg s with
          | -1 ->
            err ~instr
              "index symbol %s is not an argument or the enclosing loop \
               counter" s
          | j -> (
            match arg_tys.(j) with
            | Instr.Int_arg -> ()
            | Instr.Float_arg | Instr.Array_arg _ ->
              err ~instr "index symbol %s is not an i64 argument" s))
      (Affine.terms a.index)
  in
  let access_ty (a : Instr.address) =
    if a.access_lanes = 1 then Types.Scalar a.elt
    else Types.Vec (a.elt, a.access_lanes)
  in
  (* The mask for an n-lane operation is an ordinary i1 value with the same
     lane count — there is no separate predicate register file. *)
  let mask_ty n =
    if n = 1 then Types.Scalar Types.I1 else Types.Vec (Types.I1, n)
  in
  let check_instr ~counter (i : Instr.t) =
    if id_mem seen_ids i.Instr.id then
      err ~instr:i "instruction appears twice in the function";
    id_add seen_ids i.Instr.id;
    cur := Some i;
    Instr.iter_operands check_value i;
    (match i.kind with
     | Instr.Binop (op, x, y) ->
       (match i.ty with
        | Types.Scalar s | Types.Vec (s, _) ->
          if not (Opcode.binop_accepts op s) then
            err ~instr:i "opcode %s cannot operate on %a lanes"
              (Opcode.binop_name op) Types.pp_scalar s
        | Types.Void -> err ~instr:i "binop with void result");
       expect_ty i "left operand" i.ty x;
       expect_ty i "right operand" i.ty y
     | Instr.Unop (op, x) ->
       (match i.ty with
        | Types.Scalar s | Types.Vec (s, _) ->
          if not (Opcode.unop_accepts op s) then
            err ~instr:i "opcode %s cannot operate on %a lanes"
              (Opcode.unop_name op) Types.pp_scalar s
        | Types.Void -> err ~instr:i "unop with void result");
       expect_ty i "operand" i.ty x
     | Instr.Load a ->
       check_address ~counter i a;
       if not (Types.equal i.ty (access_ty a)) then
         err ~instr:i "load result type does not match access width"
     | Instr.Store (a, v) ->
       check_address ~counter i a;
       expect_ty i "stored value" (access_ty a) v;
       if not (Types.equal i.ty Types.Void) then
         err ~instr:i "store must have void type"
     | Instr.Cmp (op, x, y) ->
       (match i.ty with
        | Types.Scalar Types.I1 | Types.Vec (Types.I1, _) -> ()
        | Types.Scalar _ | Types.Vec _ | Types.Void ->
          err ~instr:i "cmp.%s must produce i1 lanes" (Opcode.cmp_name op));
       (match operand_ty x with
        | (Types.Scalar s | Types.Vec (s, _)) as tx when has_value_ty x ->
          if not (Opcode.cmp_accepts s) then
            err ~instr:i "cmp cannot compare %a lanes" Types.pp_scalar s;
          if Types.lanes tx <> Types.lanes i.ty then
            err ~instr:i "cmp lane count does not match its result";
          expect_ty i "right operand" tx y
        | Types.Scalar _ | Types.Vec _ | Types.Void ->
          err ~instr:i "cmp of non-value")
     | Instr.Select (m, x, y) ->
       (match i.ty with
        | Types.Void -> err ~instr:i "select with void result"
        | Types.Scalar _ | Types.Vec _ ->
          expect_ty i "select mask" (mask_ty (Types.lanes i.ty)) m;
          expect_ty i "then-value" i.ty x;
          expect_ty i "else-value" i.ty y)
     | Instr.Masked_load (a, m, p) ->
       check_address ~counter i a;
       if not (Types.equal i.ty (access_ty a)) then
         err ~instr:i "masked load result type does not match access width";
       expect_ty i "load mask" (mask_ty a.access_lanes) m;
       expect_ty i "passthrough" (access_ty a) p
     | Instr.Masked_store (a, v, m) ->
       check_address ~counter i a;
       expect_ty i "stored value" (access_ty a) v;
       expect_ty i "store mask" (mask_ty a.access_lanes) m;
       if not (Types.equal i.ty Types.Void) then
         err ~instr:i "masked store must have void type"
     | Instr.Splat v ->
       (match i.ty with
        | Types.Vec (s, _) -> expect_ty i "splat operand" (Types.Scalar s) v
        | Types.Scalar _ | Types.Void ->
          err ~instr:i "splat must produce a vector")
     | Instr.Buildvec vs ->
       (match i.ty with
        | Types.Vec (s, n) ->
          if List.length vs <> n then
            err ~instr:i "buildvec arity %d does not match %d lanes"
              (List.length vs) n;
          List.iter (expect_ty i "buildvec element" (Types.Scalar s)) vs
        | Types.Scalar _ | Types.Void ->
          err ~instr:i "buildvec must produce a vector")
     | Instr.Extract (v, lane) ->
       (match (operand_ty v, i.ty) with
        | _ when not (has_value_ty v) -> err ~instr:i "extract of non-value"
        | Types.Vec (s, n), Types.Scalar s' ->
          if not (Types.equal_scalar s s') then
            err ~instr:i "extract element type mismatch";
          if lane < 0 || lane >= n then
            err ~instr:i "extract lane %d out of range [0,%d)" lane n
        | _, _ ->
          err ~instr:i "extract requires a vector operand and scalar result")
     | Instr.Reduce (op, v) ->
       (match (operand_ty v, i.ty) with
        | _ when not (has_value_ty v) -> err ~instr:i "reduce of non-value"
        | Types.Vec (s, _), Types.Scalar s' ->
          if not (Types.equal_scalar s s') then
            err ~instr:i "reduce element type mismatch";
          if not (Opcode.binop_accepts op s) then
            err ~instr:i "reduce opcode does not match element type";
          if not (Opcode.is_commutative op && Opcode.is_associative op) then
            err ~instr:i "reduce requires a commutative+associative opcode"
        | _, _ ->
          err ~instr:i "reduce requires a vector operand and scalar result")
     | Instr.Shuffle (v, idx) ->
       (match (operand_ty v, i.ty) with
        | _ when not (has_value_ty v) -> err ~instr:i "shuffle of non-value"
        | Types.Vec (s, n), Types.Vec (s', n') ->
          if not (Types.equal_scalar s s') then
            err ~instr:i "shuffle element type mismatch";
          if List.length idx <> n' then
            err ~instr:i "shuffle index count %d does not match %d lanes"
              (List.length idx) n';
          List.iter
            (fun k ->
              if k < 0 || k >= n then
                err ~instr:i "shuffle index %d out of range [0,%d)" k n)
            idx
        | _, _ ->
          err ~instr:i "shuffle requires vector operand and vector result"));
    id_add defined i.Instr.id
  in
  let seen_labels = Hashtbl.create 8 in
  List.iter
    (fun b ->
      let label = Block.label b in
      if Hashtbl.mem seen_labels label then
        err "duplicate block label %s" label;
      Hashtbl.replace seen_labels label ();
      let counter =
        match Block.kind b with
        | Block.Straight -> None
        | Block.Loop li ->
          if li.Block.l_step < 1 then
            err "loop %s has non-positive step %d" label li.Block.l_step;
          if lookup_arg li.Block.counter >= 0 then
            err "loop %s counter %s shadows a function argument" label
              li.Block.counter;
          (match li.Block.l_stop with
           | Block.Bound_sym s ->
             (match lookup_arg s with
              | -1 -> err "loop %s bound %s is not an argument" label s
              | j -> (
                match arg_tys.(j) with
                | Instr.Int_arg -> ()
                | Instr.Float_arg | Instr.Array_arg _ ->
                  err "loop %s bound %s is not an i64 argument" label s))
           | Block.Bound_const _ -> ());
          Some li.Block.counter
      in
      id_clear defined;
      Block.iter (check_instr ~counter) b)
    (Func.blocks f);
  (* Arena invariants (dense bijective ids, monotone CSR offsets, acyclic
     uses) are part of well-formedness: every accepted function must
     snapshot cleanly.  Checked only on otherwise-valid IR so error lists
     for malformed inputs are unchanged; the checked arenas are the
     result. *)
  if !errors <> [] then Error (List.rev !errors)
  else
    let arenas = List.map Arena.of_block (Func.blocks f) in
    List.iter2
      (fun b a ->
        match Arena.check a with
        | Ok () -> ()
        | Error message ->
          errors :=
            { instr = None;
              message = Fmt.str "block %s: %s" (Block.label b) message }
            :: !errors)
      (Func.blocks f) arenas;
    if !errors = [] then Ok arenas else Error (List.rev !errors)

let check_func f =
  match check_func_arenas f with Ok _ -> [] | Error errors -> errors

let verify_exn f =
  match check_func f with
  | [] -> ()
  | errors -> raise (Invalid errors)

let is_valid f = check_func f = []
