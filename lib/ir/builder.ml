(* Convenience layer for constructing IR: infers result types, checks operand
   types eagerly, appends to the function's block, and invents readable
   value names. *)

type t = {
  func : Func.t;
  mutable current : Block.t;    (* where emit appends *)
  mutable next_tmp : int;
  mutable next_block : int;
}

exception Type_error of string

let type_error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

let create ~name ~args =
  let args =
    List.map (fun (arg_name, arg_ty) -> { Instr.arg_name; arg_ty }) args
  in
  let func = Func.create ~name ~args in
  { func; current = Func.entry func; next_tmp = 0; next_block = 0 }

let func b = b.func

let current_block b = b.current

let start_block b ?label ?(kind = Block.Straight) () =
  let label =
    match label with
    | Some l -> l
    | None ->
      let n = b.next_block in
      b.next_block <- n + 1;
      "b" ^ string_of_int n
  in
  let blk = Block.create ~label ~kind () in
  Func.add_block b.func blk;
  b.current <- blk;
  blk

let fresh_name b hint =
  let n = b.next_tmp in
  b.next_tmp <- n + 1;
  (* plain concatenation: this names every built instruction *)
  (if String.equal hint "" then "t" else hint) ^ string_of_int n

let iconst n = Instr.Const (Instr.Cint (Int64.of_int n))
let iconst64 n = Instr.Const (Instr.Cint n)
let fconst x = Instr.Const (Instr.Cfloat x)
let iconst32 n = Instr.Const (Instr.Cint32 (Int32.of_int n))
let fconst32 x = Instr.Const (Instr.Cfloat32 x)

let arg b name =
  match Func.find_arg b.func name with
  | None -> type_error "unknown argument %s" name
  | Some a ->
    (match a.arg_ty with
     | Instr.Int_arg | Instr.Float_arg -> Instr.Arg a
     | Instr.Array_arg _ ->
       type_error "array argument %s used as a scalar value" name)

let value_ty_exn v =
  match Instr.value_ty v with
  | Some ty -> ty
  | None -> type_error "array argument used as a first-class value"

(* [context arg] names the operand in the error text.  It runs only on the
   error branch, so the store and masked-op checks, whose names embed the
   array, build no string when the operand is well-typed. *)
let check_scalar_ty_in context arg expected v =
  let ty = value_ty_exn v in
  if not (Types.equal ty (Types.Scalar expected)) then
    type_error "%s expects %a operand, got %a" (context arg) Types.pp_scalar
      expected Types.pp ty

let check_scalar_ty what expected v = check_scalar_ty_in Fun.id what expected v

(* Operand-driven element type: the IR's opcodes are width-polymorphic, so
   the result scalar comes from the first operand (class-checked), not from
   the opcode. *)
let operand_scalar what accepts v =
  match value_ty_exn v with
  | Types.Scalar s ->
    if not (accepts s) then
      type_error "%s cannot operate on %a lanes" what Types.pp_scalar s;
    s
  | ty -> type_error "%s expects a scalar operand, got %a" what Types.pp ty

let emit b instr =
  Block.append b.current instr;
  Instr.Ins instr

let binop b ?(name = "") op x y =
  let elt =
    operand_scalar (Opcode.binop_name op) (Opcode.binop_accepts op) x
  in
  check_scalar_ty (Opcode.binop_name op) elt y;
  let name = fresh_name b name in
  emit b (Instr.create ~name (Instr.Binop (op, x, y)) (Types.Scalar elt))

let unop b ?(name = "") op x =
  let elt =
    operand_scalar (Opcode.unop_name op) (Opcode.unop_accepts op) x
  in
  let name = fresh_name b name in
  emit b (Instr.create ~name (Instr.Unop (op, x)) (Types.Scalar elt))

let cmp b ?(name = "") op x y =
  let what = "cmp." ^ Opcode.cmp_name op in
  let elt = operand_scalar what Opcode.cmp_accepts x in
  check_scalar_ty what elt y;
  let name = fresh_name b (if String.equal name "" then "m" else name) in
  emit b (Instr.create ~name (Instr.Cmp (op, x, y)) (Types.Scalar Types.I1))

let select b ?(name = "") m x y =
  check_scalar_ty "select mask" Types.I1 m;
  let elt = operand_scalar "select" (fun s -> not (Types.is_mask_scalar s)) x in
  check_scalar_ty "select" elt y;
  let name = fresh_name b (if String.equal name "" then "sel" else name) in
  emit b (Instr.create ~name (Instr.Select (m, x, y)) (Types.Scalar elt))

let array_elt b base =
  match Func.find_arg b.func base with
  | Some { Instr.arg_ty = Instr.Array_arg elt; _ } -> elt
  | Some _ -> type_error "%s is not an array argument" base
  | None -> type_error "unknown array %s" base

let load b ?(name = "") ~base index =
  let elt = array_elt b base in
  let addr = { Instr.base; elt; index; access_lanes = 1 } in
  let name = fresh_name b (if String.equal name "" then "ld" else name) in
  emit b (Instr.create ~name (Instr.Load addr) (Types.Scalar elt))

let store b ~base index v =
  let elt = array_elt b base in
  check_scalar_ty_in (fun base -> "store to " ^ base) base elt v;
  let addr = { Instr.base; elt; index; access_lanes = 1 } in
  ignore (emit b (Instr.create (Instr.Store (addr, v)) Types.Void))

let masked_load b ?(name = "") ~base index ~mask ~passthrough =
  let elt = array_elt b base in
  check_scalar_ty_in
    (fun base -> "masked.load from " ^ base ^ " mask")
    base Types.I1 mask;
  check_scalar_ty_in
    (fun base -> "masked.load from " ^ base ^ " passthrough")
    base elt passthrough;
  let addr = { Instr.base; elt; index; access_lanes = 1 } in
  let name = fresh_name b (if String.equal name "" then "mld" else name) in
  emit b
    (Instr.create ~name
       (Instr.Masked_load (addr, mask, passthrough))
       (Types.Scalar elt))

let masked_store b ~base index v ~mask =
  let elt = array_elt b base in
  check_scalar_ty_in (fun base -> "masked.store to " ^ base) base elt v;
  check_scalar_ty_in
    (fun base -> "masked.store to " ^ base ^ " mask")
    base Types.I1 mask;
  let addr = { Instr.base; elt; index; access_lanes = 1 } in
  ignore (emit b (Instr.create (Instr.Masked_store (addr, v, mask)) Types.Void))

(* Shorthand used pervasively by tests and examples: index [i + k]. *)
let idx ?(sym = "i") k = Affine.add_const k (Affine.sym sym)
let cidx k = Affine.const k
