(* Reference IR printer for the equivalence tests: the Format-based printer
   the Buffer emitter in [Lslp_ir.Printer] replaced, kept verbatim in
   behaviour.  Affine indices, types and loop bounds are printed here with
   their own Format code too, so the reference shares no text path with the
   code under test. *)

open Lslp_ir

let pp_scalar ppf = function
  | Types.I64 -> Fmt.string ppf "i64"
  | Types.F64 -> Fmt.string ppf "f64"
  | Types.I32 -> Fmt.string ppf "i32"
  | Types.F32 -> Fmt.string ppf "f32"
  | Types.I1 -> Fmt.string ppf "i1"

let pp_ty ppf = function
  | Types.Scalar s -> pp_scalar ppf s
  | Types.Vec (s, n) -> Fmt.pf ppf "<%d x %a>" n pp_scalar s
  | Types.Void -> Fmt.string ppf "void"

let pp_affine ppf a =
  let pp_term first ppf (s, c) =
    if c = 1 then Fmt.pf ppf (if first then "%s" else " + %s") s
    else if c = -1 then Fmt.pf ppf (if first then "-%s" else " - %s") s
    else if c >= 0 then Fmt.pf ppf (if first then "%d*%s" else " + %d*%s") c s
    else Fmt.pf ppf (if first then "-%d*%s" else " - %d*%s") (abs c) s
  in
  let const = Affine.const_part a in
  match Affine.terms a with
  | [] -> Fmt.int ppf const
  | t0 :: rest ->
    pp_term true ppf t0;
    List.iter (pp_term false ppf) rest;
    if const > 0 then Fmt.pf ppf " + %d" const
    else if const < 0 then Fmt.pf ppf " - %d" (abs const)

let pp_bound ppf = function
  | Block.Bound_const k -> Fmt.int ppf k
  | Block.Bound_sym s -> Fmt.string ppf s

let pp_const ppf = function
  | Instr.Cint n -> Fmt.pf ppf "%Ld" n
  | Instr.Cfloat x -> Fmt.pf ppf "%h" x
  | Instr.Cint32 n -> Fmt.pf ppf "%ldl" n
  | Instr.Cfloat32 x -> Fmt.pf ppf "%hf" x

let pp_const_readable ppf = function
  | Instr.Cint n -> Fmt.pf ppf "%Ld" n
  | Instr.Cfloat x ->
    let s = Fmt.str "%.12g" x in
    if float_of_string s = x then Fmt.string ppf s else Fmt.pf ppf "%h" x
  | Instr.Cint32 n -> Fmt.pf ppf "%ldl" n
  | Instr.Cfloat32 x ->
    let s = Fmt.str "%.7g" x in
    if float_of_string s = x then Fmt.pf ppf "%sf" s else Fmt.pf ppf "%hf" x

let inst_label (i : Instr.t) =
  if String.equal i.name "" then Fmt.str "%%v%d" i.id
  else Fmt.str "%%%s.%d" i.name i.id

let pp_value ppf = function
  | Instr.Const c -> pp_const_readable ppf c
  | Instr.Arg a -> Fmt.string ppf a.arg_name
  | Instr.Ins i -> Fmt.string ppf (inst_label i)

let pp_address ppf (a : Instr.address) =
  if a.access_lanes > 1 then
    Fmt.pf ppf "<%d x %a> %s[%a]" a.access_lanes pp_scalar a.elt a.base
      pp_affine a.index
  else Fmt.pf ppf "%s[%a]" a.base pp_affine a.index

let pp_instr ppf (i : Instr.t) =
  let lhs ppf () = Fmt.pf ppf "%s : %a = " (inst_label i) pp_ty i.ty in
  match i.kind with
  | Instr.Binop (op, x, y) ->
    Fmt.pf ppf "%a%a %a, %a" lhs () Opcode.pp_binop op pp_value x pp_value y
  | Instr.Unop (op, x) ->
    Fmt.pf ppf "%a%a %a" lhs () Opcode.pp_unop op pp_value x
  | Instr.Load a -> Fmt.pf ppf "%aload %a" lhs () pp_address a
  | Instr.Store (a, v) -> Fmt.pf ppf "store %a, %a" pp_address a pp_value v
  | Instr.Cmp (op, x, y) ->
    Fmt.pf ppf "%acmp.%a %a, %a" lhs () Opcode.pp_cmp op pp_value x pp_value y
  | Instr.Select (m, x, y) ->
    Fmt.pf ppf "%aselect %a, %a, %a" lhs () pp_value m pp_value x pp_value y
  | Instr.Masked_load (a, m, p) ->
    Fmt.pf ppf "%amasked.load %a, %a, %a" lhs () pp_address a pp_value m
      pp_value p
  | Instr.Masked_store (a, v, m) ->
    Fmt.pf ppf "masked.store %a, %a, %a" pp_address a pp_value v pp_value m
  | Instr.Splat v -> Fmt.pf ppf "%asplat %a" lhs () pp_value v
  | Instr.Buildvec vs ->
    Fmt.pf ppf "%abuildvec [%a]" lhs () Fmt.(list ~sep:(any ", ") pp_value) vs
  | Instr.Extract (v, lane) ->
    Fmt.pf ppf "%aextract %a, %d" lhs () pp_value v lane
  | Instr.Reduce (op, v) ->
    Fmt.pf ppf "%areduce.%a %a" lhs () Opcode.pp_binop op pp_value v
  | Instr.Shuffle (v, idx) ->
    Fmt.pf ppf "%ashuffle %a, [%a]" lhs () pp_value v
      Fmt.(list ~sep:(any ", ") int) idx

let pp_arg ppf (a : Instr.arg) =
  match a.arg_ty with
  | Instr.Int_arg -> Fmt.pf ppf "i64 %s" a.arg_name
  | Instr.Float_arg -> Fmt.pf ppf "f64 %s" a.arg_name
  | Instr.Array_arg elt -> Fmt.pf ppf "%a %s[]" pp_scalar elt a.arg_name

let pp_block_header ppf b =
  match Block.kind b with
  | Block.Straight -> Fmt.pf ppf "%s:" (Block.label b)
  | Block.Loop li ->
    Fmt.pf ppf "%s: for (%s = %d; %s < %a; %s += %d)" (Block.label b)
      li.Block.counter li.Block.l_start li.Block.counter pp_bound
      li.Block.l_stop li.Block.counter li.Block.l_step

let pp_func ppf (f : Func.t) =
  Fmt.pf ppf "@[<v>kernel %s(%a) {@," f.fname
    Fmt.(list ~sep:(any ", ") pp_arg)
    f.args;
  (match Func.blocks f with
   | [ b ] when not (Block.is_loop b) ->
     Block.iter (fun i -> Fmt.pf ppf "  %a@," pp_instr i) b
   | bs ->
     List.iter
       (fun b ->
         Fmt.pf ppf "%a@," pp_block_header b;
         Block.iter (fun i -> Fmt.pf ppf "  %a@," pp_instr i) b)
       bs);
  Fmt.pf ppf "}@]"
