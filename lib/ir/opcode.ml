(* Instruction opcodes and their algebraic properties.

   Commutativity and associativity drive the whole LSLP algorithm: only
   commutative opcodes are legal reordering candidates, and only opcodes that
   are both commutative and associative may form multi-nodes (reassociating a
   chain is only sound for associative operations).  Floating-point add/mul
   are treated as commutative *and* associative because the paper compiles
   with [-ffast-math]. *)

type binop =
  | Add | Sub | Mul | Sdiv | Srem
  | And | Or | Xor
  | Shl | Lshr | Ashr
  | Smin | Smax
  | Fadd | Fsub | Fmul | Fdiv
  | Fmin | Fmax

type unop = Neg | Fneg | Fsqrt | Fabs

(* Comparison predicates, produced by if-conversion.  They live outside the
   [binop] enum on purpose: a compare changes the element type (lanes in,
   i1 lanes out), so none of the binop machinery (width checks, reduction
   matching, the 0..18 [binop_code] table) applies.  Width-polymorphic like
   the binops: the predicate compares whatever scalar its operands carry. *)
type cmp = Lt | Le | Gt | Ge | Eq | Ne

let all_binops =
  [ Add; Sub; Mul; Sdiv; Srem; And; Or; Xor; Shl; Lshr; Ashr; Smin; Smax;
    Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax ]

let all_unops = [ Neg; Fneg; Fsqrt; Fabs ]
let all_cmps = [ Lt; Le; Gt; Ge; Eq; Ne ]

(* Only the symmetric predicates commute; Lt/Le/Gt/Ge order their operands. *)
let cmp_is_commutative = function
  | Eq | Ne -> true
  | Lt | Le | Gt | Ge -> false

(* swap(cmp a b) = (swap_cmp cmp) b a — used when a reorder flips operands. *)
let swap_cmp = function
  | Lt -> Gt | Gt -> Lt | Le -> Ge | Ge -> Le | Eq -> Eq | Ne -> Ne

(* not(cmp a b) = (negate_cmp cmp) a b — the else-branch predicate of
   if-conversion.  Only exact under fast-math's no-NaN assumption: with a
   NaN operand both [Lt] and its negation [Ge] are false, so neither branch
   mask would fire.  The frontend documents (and the fuzzer respects) the
   no-NaN contract. *)
let negate_cmp = function
  | Lt -> Ge | Ge -> Lt | Le -> Gt | Gt -> Le | Eq -> Ne | Ne -> Eq

let is_commutative = function
  | Add | Mul | And | Or | Xor | Smin | Smax | Fadd | Fmul | Fmin | Fmax ->
    true
  | Sub | Sdiv | Srem | Shl | Lshr | Ashr | Fsub | Fdiv -> false

(* With -ffast-math semantics, every commutative opcode here is also
   associative, but keep the two notions separate: a future opcode could be
   commutative without being associative (e.g. IEEE fadd). *)
let is_associative = function
  | Add | Mul | And | Or | Xor | Smin | Smax | Fadd | Fmul | Fmin | Fmax ->
    true
  | Sub | Sdiv | Srem | Shl | Lshr | Ashr | Fsub | Fdiv -> false

let binop_is_float = function
  | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax -> true
  | Add | Sub | Mul | Sdiv | Srem | And | Or | Xor | Shl | Lshr | Ashr
  | Smin | Smax -> false

let unop_is_float = function
  | Fneg | Fsqrt | Fabs -> true
  | Neg -> false

(* The *default* scalar an opcode operates on: what the (i64/f64-only)
   kernel-language frontend instantiates.  The IR itself is width-
   polymorphic — see [binop_accepts]. *)
let binop_operand_scalar op : Types.scalar =
  if binop_is_float op then F64 else I64

(* Width-polymorphic class check: float opcodes work on f32/f64 lanes,
   integer opcodes on i32/i64 lanes. *)
let binop_accepts op (s : Types.scalar) =
  Types.is_float_scalar s = binop_is_float op

let unop_accepts op (s : Types.scalar) =
  Types.is_float_scalar s = unop_is_float op

(* Comparisons accept any non-mask scalar; comparing masks is meaningless
   (use And/Or/Xor on the i1 lanes instead). *)
let cmp_accepts (s : Types.scalar) = not (Types.is_mask_scalar s)

let equal_binop (a : binop) (b : binop) = a = b
let equal_unop (a : unop) (b : unop) = a = b
let equal_cmp (a : cmp) (b : cmp) = a = b

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Sdiv -> "sdiv"
  | Srem -> "srem" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Lshr -> "lshr" | Ashr -> "ashr"
  | Smin -> "smin" | Smax -> "smax"
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"
  | Fmin -> "fmin" | Fmax -> "fmax"

let unop_name = function
  | Neg -> "neg" | Fneg -> "fneg" | Fsqrt -> "fsqrt" | Fabs -> "fabs"

let cmp_name = function
  | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge" | Eq -> "eq"
  | Ne -> "ne"

let pp_binop ppf op = Fmt.string ppf (binop_name op)
let pp_unop ppf op = Fmt.string ppf (unop_name op)
let pp_cmp ppf op = Fmt.string ppf (cmp_name op)

let binop_code = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Sdiv -> 3 | Srem -> 4
  | And -> 5 | Or -> 6 | Xor -> 7
  | Shl -> 8 | Lshr -> 9 | Ashr -> 10
  | Smin -> 11 | Smax -> 12
  | Fadd -> 13 | Fsub -> 14 | Fmul -> 15 | Fdiv -> 16
  | Fmin -> 17 | Fmax -> 18

let unop_code = function Neg -> 0 | Fneg -> 1 | Fsqrt -> 2 | Fabs -> 3

let cmp_code = function
  | Lt -> 0 | Le -> 1 | Gt -> 2 | Ge -> 3 | Eq -> 4 | Ne -> 5
