(* IR well-formedness checker.

   Run after construction and after every transformation in tests: a
   vectorizer bug that produces use-before-def or a lane-count mismatch is
   caught here rather than as a wrong answer three layers up. *)

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

let check_func (f : Func.t) =
  let errors = ref [] in
  let err ?instr fmt =
    Fmt.kstr (fun message -> errors := { instr; message } :: !errors) fmt
  in
  let defined = id_set f in
  let arg_names = Hashtbl.create 8 in
  List.iter
    (fun (a : Instr.arg) ->
      if Hashtbl.mem arg_names a.arg_name then
        err "duplicate argument name %s" a.arg_name;
      Hashtbl.replace arg_names a.arg_name a.arg_ty)
    f.args;
  let seen_ids = id_set f in
  (* one-entry memo in front of [arg_names]: consecutive lookups mostly
     name the same argument, and a hit allocates nothing *)
  let last_name = ref "" and last_ty = ref None and have_last = ref false in
  let lookup_arg name =
    if !have_last && String.equal name !last_name then !last_ty
    else begin
      let ty = Hashtbl.find_opt arg_names name in
      last_name := name;
      last_ty := ty;
      have_last := true;
      ty
    end
  in
  (* Regions are self-contained: values may only be referenced from the
     block that defines them, so [defined] is reset per block and a
     cross-block use reports as use-before-def. *)
  let check_value instr (v : Instr.value) =
    match v with
    | Instr.Ins def ->
      if not (id_mem defined def.Instr.id) then
        err ~instr "use of %s before its definition (or of a value defined \
                    in another block — regions are self-contained)"
          (Printer.value_to_string v)
    | Instr.Arg a ->
      (match lookup_arg a.arg_name with
       | None -> err ~instr "reference to unknown argument %s" a.arg_name
       | Some (Instr.Array_arg _) ->
         err ~instr "array argument %s used as scalar value" a.arg_name
       | Some (Instr.Int_arg | Instr.Float_arg) -> ())
    | Instr.Const _ -> ()
  in
  let value_ty instr v =
    match Instr.value_ty v with
    | Some ty -> ty
    | None ->
      err ~instr "operand has no value type";
      Types.Void
  in
  let expect_ty instr what expected v =
    let ty = value_ty instr v in
    if not (Types.equal ty expected) then
      err ~instr "%s: expected %a, got %a" what Types.pp expected Types.pp ty
  in
  let check_address ~counter instr (a : Instr.address) =
    (match lookup_arg a.base with
     | Some (Instr.Array_arg elt) ->
       if not (Types.equal_scalar elt a.elt) then
         err ~instr "address element type %a does not match array %s (%a)"
           Types.pp_scalar a.elt a.base Types.pp_scalar elt
     | Some (Instr.Int_arg | Instr.Float_arg) ->
       err ~instr "%s is not an array argument" a.base
     | None -> err ~instr "unknown array %s" a.base);
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
          | Some Instr.Int_arg -> ()
          | Some _ -> err ~instr "index symbol %s is not an i64 argument" s
          | None ->
            err ~instr
              "index symbol %s is not an argument or the enclosing loop \
               counter" s)
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
    List.iter (check_value i) (Instr.operands i);
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
       (match Instr.value_ty x with
        | Some (Types.Scalar s as tx) | Some (Types.Vec (s, _) as tx) ->
          if not (Opcode.cmp_accepts s) then
            err ~instr:i "cmp cannot compare %a lanes" Types.pp_scalar s;
          if Types.lanes tx <> Types.lanes i.ty then
            err ~instr:i "cmp lane count does not match its result";
          expect_ty i "right operand" tx y
        | Some Types.Void | None -> err ~instr:i "cmp of non-value")
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
       (match (Instr.value_ty v, i.ty) with
        | Some (Types.Vec (s, n)), Types.Scalar s' ->
          if not (Types.equal_scalar s s') then
            err ~instr:i "extract element type mismatch";
          if lane < 0 || lane >= n then
            err ~instr:i "extract lane %d out of range [0,%d)" lane n
        | Some _, _ ->
          err ~instr:i "extract requires a vector operand and scalar result"
        | None, _ -> err ~instr:i "extract of non-value")
     | Instr.Reduce (op, v) ->
       (match (Instr.value_ty v, i.ty) with
        | Some (Types.Vec (s, _)), Types.Scalar s' ->
          if not (Types.equal_scalar s s') then
            err ~instr:i "reduce element type mismatch";
          if not (Opcode.binop_accepts op s) then
            err ~instr:i "reduce opcode does not match element type";
          if not (Opcode.is_commutative op && Opcode.is_associative op) then
            err ~instr:i "reduce requires a commutative+associative opcode"
        | Some _, _ ->
          err ~instr:i "reduce requires a vector operand and scalar result"
        | None, _ -> err ~instr:i "reduce of non-value")
     | Instr.Shuffle (v, idx) ->
       (match (Instr.value_ty v, i.ty) with
        | Some (Types.Vec (s, n)), Types.Vec (s', n') ->
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
        | Some _, _ ->
          err ~instr:i "shuffle requires vector operand and vector result"
        | None, _ -> err ~instr:i "shuffle of non-value"));
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
          if Hashtbl.mem arg_names li.Block.counter then
            err "loop %s counter %s shadows a function argument" label
              li.Block.counter;
          (match li.Block.l_stop with
           | Block.Bound_sym s ->
             (match Hashtbl.find_opt arg_names s with
              | Some Instr.Int_arg -> ()
              | Some _ ->
                err "loop %s bound %s is not an i64 argument" label s
              | None -> err "loop %s bound %s is not an argument" label s)
           | Block.Bound_const _ -> ());
          Some li.Block.counter
      in
      id_clear defined;
      Block.iter (check_instr ~counter) b)
    (Func.blocks f);
  (* Arena invariants (dense bijective ids, monotone CSR offsets, acyclic
     uses) are part of well-formedness: every accepted function must
     snapshot cleanly.  Checked only on otherwise-valid IR so error lists
     for malformed inputs are unchanged. *)
  if !errors = [] then
    List.iter
      (fun b ->
        match Arena.check (Arena.of_block b) with
        | Ok () -> ()
        | Error message ->
          errors :=
            { instr = None;
              message = Fmt.str "block %s: %s" (Block.label b) message }
            :: !errors)
      (Func.blocks f);
  List.rev !errors

let verify_exn f =
  match check_func f with
  | [] -> ()
  | errors -> raise (Invalid errors)

let is_valid f = check_func f = []
