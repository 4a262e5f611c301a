(* IR well-formedness checker.

   Run after construction and after every transformation in tests: a
   vectorizer bug that produces use-before-def or a lane-count mismatch is
   caught here rather than as a wrong answer three layers up.

   It runs on every frontend compile and inside every region transaction,
   so a call allocates little: the per-call state is one record, the checks
   are top-level functions over it, and the id -> index map each block's
   arena keeps, filled in the same walk, stands for both "seen before" and
   "defined earlier in this block". *)

type error = { instr : Instr.t option; message : string }

let pp_error ppf e =
  match e.instr with
  | Some i -> Fmt.pf ppf "%s: in `%a`" e.message Printer.pp_instr i
  | None -> Fmt.string ppf e.message

let error_to_string e = Fmt.str "%a" pp_error e

exception Invalid of error list

module Id_map = Lslp_util.Id_map

type ctx = {
  args : Instr.arg array;
  mutable index : Id_map.t;        (* the current block's id -> index *)
  mutable uses : int array;        (* its use count by index, n + 1 long *)
  mutable walked : (Id_map.t * int array) list;
      (* each walked block's map and use counts, newest first *)
  mutable errors : error list;     (* newest first *)
}

let report ctx instr message = ctx.errors <- { instr; message } :: ctx.errors
let err ctx ?instr fmt = Fmt.kstr (report ctx instr) fmt

(* The index of the argument named [name], scanning from the last, so a
   duplicated name resolves to its last declaration; [-1] when none. *)
let lookup_arg ctx name =
  let args = ctx.args in
  let rec go j =
    if j < 0 || String.equal (Array.unsafe_get args j).Instr.arg_name name
    then j
    else go (j - 1)
  in
  go (Array.length args - 1)

let arg_ty ctx j = ctx.args.(j).Instr.arg_ty

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

(* Regions are self-contained: values may only be referenced from the
   block that defines them, so a cross-block use reports as
   use-before-def. *)
let check_value ctx i (v : Instr.value) =
  match v with
  | Instr.Ins def ->
    let d = Id_map.get ctx.index def.Instr.id in
    if d >= 0 then ctx.uses.(d) <- ctx.uses.(d) + 1
    else
      err ctx ~instr:i "use of %s before its definition (or of a value \
                        defined in another block — regions are \
                        self-contained)"
        (Printer.value_to_string v)
  | Instr.Arg a -> (
    match lookup_arg ctx a.arg_name with
    | -1 -> err ctx ~instr:i "reference to unknown argument %s" a.arg_name
    | j -> (
      match arg_ty ctx j with
      | Instr.Array_arg _ ->
        err ctx ~instr:i "array argument %s used as scalar value" a.arg_name
      | Instr.Int_arg | Instr.Float_arg -> ()))
  | Instr.Const _ -> ()

(* [Instr.iter_operands]' order, without a closure per instruction *)
let check_operands ctx (i : Instr.t) =
  match i.kind with
  | Instr.Binop (_, a, b) | Instr.Cmp (_, a, b)
  | Instr.Masked_load (_, a, b) | Instr.Masked_store (_, a, b) ->
    check_value ctx i a;
    check_value ctx i b
  | Instr.Unop (_, a) | Instr.Splat a | Instr.Extract (a, _)
  | Instr.Reduce (_, a) | Instr.Shuffle (a, _) | Instr.Store (_, a) ->
    check_value ctx i a
  | Instr.Select (m, a, b) ->
    check_value ctx i m;
    check_value ctx i a;
    check_value ctx i b
  | Instr.Load _ -> ()
  | Instr.Buildvec vs -> List.iter (check_value ctx i) vs

let expect_ty ctx i what expected v =
  if not (has_value_ty v) then err ctx ~instr:i "operand has no value type";
  let ty = operand_ty v in
  if not (Types.equal ty expected) then
    err ctx ~instr:i "%s: expected %a, got %a" what Types.pp expected Types.pp
      ty

let rec check_index_terms ctx ~counter i = function
  | [] -> ()
  | (s, _) :: rest ->
    let is_counter =
      match counter with Some c -> String.equal c s | None -> false
    in
    (if not is_counter then
       match lookup_arg ctx s with
       | -1 ->
         err ctx ~instr:i
           "index symbol %s is not an argument or the enclosing loop counter"
           s
       | j -> (
         match arg_ty ctx j with
         | Instr.Int_arg -> ()
         | Instr.Float_arg | Instr.Array_arg _ ->
           err ctx ~instr:i "index symbol %s is not an i64 argument" s));
    check_index_terms ctx ~counter i rest

let check_address ctx ~counter i (a : Instr.address) =
  (match lookup_arg ctx a.base with
   | -1 -> err ctx ~instr:i "unknown array %s" a.base
   | j -> (
     match arg_ty ctx j with
     | Instr.Array_arg elt ->
       if not (Types.equal_scalar elt a.elt) then
         err ctx ~instr:i
           "address element type %a does not match array %s (%a)"
           Types.pp_scalar a.elt a.base Types.pp_scalar elt
     | Instr.Int_arg | Instr.Float_arg ->
       err ctx ~instr:i "%s is not an array argument" a.base));
  if a.access_lanes < 1 then err ctx ~instr:i "non-positive access width";
  if Types.is_mask_scalar a.elt then
    err ctx ~instr:i
      "i1 is not a memory element type (masks never touch memory)";
  check_index_terms ctx ~counter i (Affine.terms a.index)

let access_ty (a : Instr.address) =
  if a.access_lanes = 1 then Types.of_scalar a.elt
  else Types.Vec (a.elt, a.access_lanes)

(* The mask for an n-lane operation is an ordinary i1 value with the same
   lane count — there is no separate predicate register file. *)
let mask_ty n = if n = 1 then Types.Scalar Types.I1 else Types.Vec (Types.I1, n)

let check_kind ctx ~counter (i : Instr.t) =
  match i.kind with
  | Instr.Binop (op, x, y) ->
    (match i.ty with
     | Types.Scalar s | Types.Vec (s, _) ->
       if not (Opcode.binop_accepts op s) then
         err ctx ~instr:i "opcode %s cannot operate on %a lanes"
           (Opcode.binop_name op) Types.pp_scalar s
     | Types.Void -> err ctx ~instr:i "binop with void result");
    expect_ty ctx i "left operand" i.ty x;
    expect_ty ctx i "right operand" i.ty y
  | Instr.Unop (op, x) ->
    (match i.ty with
     | Types.Scalar s | Types.Vec (s, _) ->
       if not (Opcode.unop_accepts op s) then
         err ctx ~instr:i "opcode %s cannot operate on %a lanes"
           (Opcode.unop_name op) Types.pp_scalar s
     | Types.Void -> err ctx ~instr:i "unop with void result");
    expect_ty ctx i "operand" i.ty x
  | Instr.Load a ->
    check_address ctx ~counter i a;
    if not (Types.equal i.ty (access_ty a)) then
      err ctx ~instr:i "load result type does not match access width"
  | Instr.Store (a, v) ->
    check_address ctx ~counter i a;
    expect_ty ctx i "stored value" (access_ty a) v;
    if not (Types.equal i.ty Types.Void) then
      err ctx ~instr:i "store must have void type"
  | Instr.Cmp (op, x, y) -> (
    (match i.ty with
     | Types.Scalar Types.I1 | Types.Vec (Types.I1, _) -> ()
     | Types.Scalar _ | Types.Vec _ | Types.Void ->
       err ctx ~instr:i "cmp.%s must produce i1 lanes" (Opcode.cmp_name op));
    match operand_ty x with
    | (Types.Scalar s | Types.Vec (s, _)) as tx when has_value_ty x ->
      if not (Opcode.cmp_accepts s) then
        err ctx ~instr:i "cmp cannot compare %a lanes" Types.pp_scalar s;
      if Types.lanes tx <> Types.lanes i.ty then
        err ctx ~instr:i "cmp lane count does not match its result";
      expect_ty ctx i "right operand" tx y
    | Types.Scalar _ | Types.Vec _ | Types.Void ->
      err ctx ~instr:i "cmp of non-value")
  | Instr.Select (m, x, y) -> (
    match i.ty with
    | Types.Void -> err ctx ~instr:i "select with void result"
    | Types.Scalar _ | Types.Vec _ ->
      expect_ty ctx i "select mask" (mask_ty (Types.lanes i.ty)) m;
      expect_ty ctx i "then-value" i.ty x;
      expect_ty ctx i "else-value" i.ty y)
  | Instr.Masked_load (a, m, p) ->
    check_address ctx ~counter i a;
    if not (Types.equal i.ty (access_ty a)) then
      err ctx ~instr:i "masked load result type does not match access width";
    expect_ty ctx i "load mask" (mask_ty a.access_lanes) m;
    expect_ty ctx i "passthrough" (access_ty a) p
  | Instr.Masked_store (a, v, m) ->
    check_address ctx ~counter i a;
    expect_ty ctx i "stored value" (access_ty a) v;
    expect_ty ctx i "store mask" (mask_ty a.access_lanes) m;
    if not (Types.equal i.ty Types.Void) then
      err ctx ~instr:i "masked store must have void type"
  | Instr.Splat v -> (
    match i.ty with
    | Types.Vec (s, _) -> expect_ty ctx i "splat operand" (Types.of_scalar s) v
    | Types.Scalar _ | Types.Void ->
      err ctx ~instr:i "splat must produce a vector")
  | Instr.Buildvec vs -> (
    match i.ty with
    | Types.Vec (s, n) ->
      if List.length vs <> n then
        err ctx ~instr:i "buildvec arity %d does not match %d lanes"
          (List.length vs) n;
      List.iter (expect_ty ctx i "buildvec element" (Types.of_scalar s)) vs
    | Types.Scalar _ | Types.Void ->
      err ctx ~instr:i "buildvec must produce a vector")
  | Instr.Extract (v, lane) -> (
    match (operand_ty v, i.ty) with
    | _ when not (has_value_ty v) -> err ctx ~instr:i "extract of non-value"
    | Types.Vec (s, n), Types.Scalar s' ->
      if not (Types.equal_scalar s s') then
        err ctx ~instr:i "extract element type mismatch";
      if lane < 0 || lane >= n then
        err ctx ~instr:i "extract lane %d out of range [0,%d)" lane n
    | _, _ ->
      err ctx ~instr:i "extract requires a vector operand and scalar result")
  | Instr.Reduce (op, v) -> (
    match (operand_ty v, i.ty) with
    | _ when not (has_value_ty v) -> err ctx ~instr:i "reduce of non-value"
    | Types.Vec (s, _), Types.Scalar s' ->
      if not (Types.equal_scalar s s') then
        err ctx ~instr:i "reduce element type mismatch";
      if not (Opcode.binop_accepts op s) then
        err ctx ~instr:i "reduce opcode does not match element type";
      if not (Opcode.is_commutative op && Opcode.is_associative op) then
        err ctx ~instr:i "reduce requires a commutative+associative opcode"
    | _, _ ->
      err ctx ~instr:i "reduce requires a vector operand and scalar result")
  | Instr.Shuffle (v, idx) -> (
    match (operand_ty v, i.ty) with
    | _ when not (has_value_ty v) -> err ctx ~instr:i "shuffle of non-value"
    | Types.Vec (s, n), Types.Vec (s', n') ->
      if not (Types.equal_scalar s s') then
        err ctx ~instr:i "shuffle element type mismatch";
      if List.length idx <> n' then
        err ctx ~instr:i "shuffle index count %d does not match %d lanes"
          (List.length idx) n';
      List.iter
        (fun k ->
          if k < 0 || k >= n then
            err ctx ~instr:i "shuffle index %d out of range [0,%d)" k n)
        idx
    | _, _ ->
      err ctx ~instr:i "shuffle requires vector operand and vector result")

(* One walk checks the block and builds what its arena keeps: the
   id -> index map, which doubles as the stamp, and the use counts.  An id
   is defined earlier in this block iff the map has it, and met twice iff
   this map or an earlier block's has it when the walk reaches it.  Ids
   outside the block's span (operands defined elsewhere) read as [-1]. *)
let rec met_before id = function
  | [] -> false
  | (m, _) :: rest -> Id_map.get m id >= 0 || met_before id rest

let check_block ctx ~counter b =
  let index = Arena.id_span b and instrs = Block.instrs b in
  let n = Block.length b in
  ctx.index <- index;
  ctx.uses <- Array.make (n + 1) 0;
  for k = 0 to n - 1 do
    let i = instrs.(k) in
    if Id_map.get index i.id >= 0 || met_before i.id ctx.walked then
      err ctx ~instr:i "instruction appears twice in the function";
    check_operands ctx i;
    check_kind ctx ~counter i;
    Id_map.set index i.id k
  done;
  ctx.walked <- (index, ctx.uses) :: ctx.walked

(* The loop counter of [b], after checking its loop header. *)
let loop_counter ctx b =
  match Block.kind b with
  | Block.Straight -> None
  | Block.Loop li ->
    let label = Block.label b in
    if li.Block.l_step < 1 then
      err ctx "loop %s has non-positive step %d" label li.Block.l_step;
    if lookup_arg ctx li.Block.counter >= 0 then
      err ctx "loop %s counter %s shadows a function argument" label
        li.Block.counter;
    (match li.Block.l_stop with
     | Block.Bound_sym s -> (
       match lookup_arg ctx s with
       | -1 -> err ctx "loop %s bound %s is not an argument" label s
       | j -> (
         match arg_ty ctx j with
         | Instr.Int_arg -> ()
         | Instr.Float_arg | Instr.Array_arg _ ->
           err ctx "loop %s bound %s is not an i64 argument" label s))
     | Block.Bound_const _ -> ());
    Some li.Block.counter

let check_func_arenas (f : Func.t) =
  let ctx =
    { args = Array.of_list f.args; index = Id_map.create ~lo:0 ~hi:(-1);
      uses = [||]; walked = []; errors = [] }
  in
  let args = ctx.args in
  for j = 0 to Array.length args - 1 do
    let name = args.(j).Instr.arg_name in
    let rec seen k =
      k < j && (String.equal args.(k).Instr.arg_name name || seen (k + 1))
    in
    if seen 0 then err ctx "duplicate argument name %s" name
  done;
  let blocks = Func.blocks f in
  ignore
    (List.fold_left
       (fun labels b ->
         let label = Block.label b in
         if List.exists (String.equal label) labels then
           err ctx "duplicate block label %s" label;
         let counter = loop_counter ctx b in
         check_block ctx ~counter b;
         label :: labels)
       [] blocks);
  (* Arena invariants (dense bijective ids, monotone CSR offsets, acyclic
     uses) are part of well-formedness: every accepted function must
     snapshot cleanly.  Checked only on otherwise-valid IR so error lists
     for malformed inputs are unchanged; the arenas over the maps the walk
     filled are the result. *)
  if ctx.errors <> [] then Error (List.rev ctx.errors)
  else
    let arenas =
      List.map2
        (fun b (index, uses) ->
          let a = Arena.of_index b index uses in
          (match Arena.check a with
           | Ok () -> ()
           | Error message -> err ctx "block %s: %s" (Block.label b) message);
          a)
        blocks (List.rev ctx.walked)
    in
    if ctx.errors = [] then Ok arenas else Error (List.rev ctx.errors)

let check_func f =
  match check_func_arenas f with Ok _ -> [] | Error errors -> errors

let verify_exn f =
  match check_func f with
  | [] -> ()
  | errors -> raise (Invalid errors)
