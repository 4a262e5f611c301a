(* Convenience layer for constructing IR: infers result types, checks operand
   types eagerly, appends to the function's block, and invents readable
   value names.  With value numbering on, it is also the frontend's
   early-CSE: a pure instruction equal to one already in the current block
   is not appended, and its first value is handed back instead. *)

type t = {
  func : Func.t;
  mutable current : Block.t;    (* where emit appends *)
  mutable next_tmp : int;
  mutable next_block : int;
  mutable numbering : Cse.numbering option; (* the current block's values *)
}

exception Type_error of string

module Decimal = Lslp_util.Decimal

let type_error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

let create ?(value_numbering = false) ~name ~args () =
  let args =
    List.map (fun (arg_name, arg_ty) -> { Instr.arg_name; arg_ty }) args
  in
  let func = Func.create ~name ~args in
  { func; current = Func.entry func; next_tmp = 0; next_block = 0;
    numbering = (if value_numbering then Some (Cse.numbering ()) else None) }

let func b = b.func

let current_block b = b.current

let start_block b ?label ?(kind = Block.Straight) () =
  let label =
    match label with
    | Some l -> l
    | None ->
      let n = b.next_block in
      b.next_block <- n + 1;
      Decimal.with_prefix "b" n
  in
  let blk = Block.create ~ids:b.func.Func.ids ~label ~kind () in
  Func.add_block b.func blk;
  b.current <- blk;
  if Option.is_some b.numbering then b.numbering <- Some (Cse.numbering ());
  blk

(* Names under each default hint: the first 64 are made once and shared
   (strings are immutable), so most instructions allocate no name.  [name]
   is the caller's hint, [""] for the default. *)
let hint default = (default, Array.init 64 (Decimal.with_prefix default))
let t_hint, ld_hint, m_hint = (hint "t", hint "ld", hint "m")
let sel_hint, mld_hint = (hint "sel", hint "mld")

let fresh_name b (default, first_names) name =
  let n = b.next_tmp in
  b.next_tmp <- n + 1;
  if not (String.equal name "") then Decimal.with_prefix name n
  else if n < 64 then first_names.(n)
  else Decimal.with_prefix default n

let iconst n = Instr.Const (Instr.Cint (Int64.of_int n))
let iconst64 n = Instr.Const (Instr.Cint n)
let fconst x = Instr.Const (Instr.Cfloat x)
let iconst32 n = Instr.Const (Instr.Cint32 (Int32.of_int n))

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
  let ok =
    match ty with
    | Types.Scalar s -> Types.equal_scalar s expected
    | Types.Vec _ | Types.Void -> false
  in
  if not ok then
    type_error "%s expects %a operand, got %a" (context arg) Types.pp_scalar
      expected Types.pp ty

let check_scalar_ty what expected v = check_scalar_ty_in Fun.id what expected v

(* Operand-driven element type: the IR's opcodes are width-polymorphic, so
   the result scalar comes from the first operand (class-checked), not from
   the opcode. *)
let operand_scalar what v =
  match value_ty_exn v with
  | Types.Scalar s -> s
  | ty -> type_error "%s expects a scalar operand, got %a" what Types.pp ty

(* [accepted]: the opcode takes lanes of [s] *)
let check_lanes what accepted s =
  if not accepted then
    type_error "%s cannot operate on %a lanes" what Types.pp_scalar s

let instr b ~name kind ty = Instr.create ~ids:b.func.Func.ids ~name kind ty

let append b instr =
  Block.append b.current instr;
  Instr.Ins instr

(* [instr] is made even when numbering drops it, so it has drawn its id and
   its name: ids, names and every tie-break on them are those of building
   everything and then running [Cse.run]. *)
let emit b instr =
  match b.numbering with
  | None -> append b instr
  | Some vn -> (
    match Cse.find_or_add vn instr with
    | -1 -> append b instr
    | h -> Cse.first vn h)

let binop b ?(name = "") op x y =
  let what = Opcode.binop_name op in
  let elt = operand_scalar what x in
  check_lanes what (Opcode.binop_accepts op elt) elt;
  check_scalar_ty what elt y;
  let name = fresh_name b t_hint name in
  emit b (instr b ~name (Instr.Binop (op, x, y)) (Types.of_scalar elt))

let unop b ?(name = "") op x =
  let what = Opcode.unop_name op in
  let elt = operand_scalar what x in
  check_lanes what (Opcode.unop_accepts op elt) elt;
  let name = fresh_name b t_hint name in
  emit b (instr b ~name (Instr.Unop (op, x)) (Types.of_scalar elt))

let cmp b ?(name = "") op x y =
  let what = "cmp." ^ Opcode.cmp_name op in
  let elt = operand_scalar what x in
  check_lanes what (Opcode.cmp_accepts elt) elt;
  check_scalar_ty what elt y;
  let name = fresh_name b m_hint name in
  emit b (instr b ~name (Instr.Cmp (op, x, y)) Types.i1)

let select b ?(name = "") m x y =
  check_scalar_ty "select mask" Types.I1 m;
  let elt = operand_scalar "select" x in
  check_lanes "select" (not (Types.is_mask_scalar elt)) elt;
  check_scalar_ty "select" elt y;
  let name = fresh_name b sel_hint name in
  emit b (instr b ~name (Instr.Select (m, x, y)) (Types.of_scalar elt))

let array_elt b base =
  match Func.find_arg b.func base with
  | Some { Instr.arg_ty = Instr.Array_arg elt; _ } -> elt
  | Some _ -> type_error "%s is not an array argument" base
  | None -> type_error "unknown array %s" base

let load b ?(name = "") ~base index =
  let elt = array_elt b base in
  let addr = { Instr.base; elt; index; access_lanes = 1 } in
  let name = fresh_name b ld_hint name in
  emit b (instr b ~name (Instr.Load addr) (Types.of_scalar elt))

let store b ~base index v =
  let elt = array_elt b base in
  check_scalar_ty_in (fun base -> "store to " ^ base) base elt v;
  let addr = { Instr.base; elt; index; access_lanes = 1 } in
  ignore (emit b (instr b ~name:"" (Instr.Store (addr, v)) Types.Void))

let masked_load b ?(name = "") ~base index ~mask ~passthrough =
  let elt = array_elt b base in
  check_scalar_ty_in
    (fun base -> "masked.load from " ^ base ^ " mask")
    base Types.I1 mask;
  check_scalar_ty_in
    (fun base -> "masked.load from " ^ base ^ " passthrough")
    base elt passthrough;
  let addr = { Instr.base; elt; index; access_lanes = 1 } in
  let name = fresh_name b mld_hint name in
  emit b
    (instr b ~name
       (Instr.Masked_load (addr, mask, passthrough))
       (Types.of_scalar elt))

let masked_store b ~base index v ~mask =
  let elt = array_elt b base in
  check_scalar_ty_in (fun base -> "masked.store to " ^ base) base elt v;
  check_scalar_ty_in
    (fun base -> "masked.store to " ^ base ^ " mask")
    base Types.I1 mask;
  let addr = { Instr.base; elt; index; access_lanes = 1 } in
  ignore
    (emit b (instr b ~name:"" (Instr.Masked_store (addr, v, mask)) Types.Void))

(* Shorthand used pervasively by tests and examples: index [i + k]. *)
let idx ?(sym = "i") k = Affine.add_const k (Affine.sym sym)
