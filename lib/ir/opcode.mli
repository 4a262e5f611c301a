(** Instruction opcodes and their algebraic properties.

    Commutativity gates operand reordering; associativity (together with
    commutativity) gates multi-node formation.  Floating-point arithmetic is
    modelled with [-ffast-math] semantics, matching the paper's experimental
    setup, so [Fadd]/[Fmul] count as commutative and associative. *)

type binop =
  | Add | Sub | Mul | Sdiv | Srem
  | And | Or | Xor
  | Shl | Lshr | Ashr
  | Smin | Smax
  | Fadd | Fsub | Fmul | Fdiv
  | Fmin | Fmax

type unop = Neg | Fneg | Fsqrt | Fabs

type cmp = Lt | Le | Gt | Ge | Eq | Ne
(** Comparison predicates, produced by if-conversion.  Kept outside [binop]:
    a compare maps value lanes to i1 lanes, so none of the binop machinery
    (width checks, reductions, [binop_code]) applies. *)

val all_binops : binop list
val all_unops : unop list
val all_cmps : cmp list

val is_commutative : binop -> bool
val is_associative : binop -> bool

val cmp_is_commutative : cmp -> bool
(** Only [Eq]/[Ne] commute. *)

val swap_cmp : cmp -> cmp
(** [cmp a b = (swap_cmp cmp) b a] — the predicate to use after flipping the
    operands. *)

val negate_cmp : cmp -> cmp
(** [not (cmp a b) = (negate_cmp cmp) a b] — the else-branch predicate of
    if-conversion.  Exact only under the no-NaN (fast-math) contract. *)

val binop_is_float : binop -> bool
val unop_is_float : unop -> bool

val binop_operand_scalar : binop -> Types.scalar
(** The *default* scalar the (64-bit-only) frontend instantiates this opcode
    at.  The IR itself is width-polymorphic: see {!binop_accepts}. *)

val binop_accepts : binop -> Types.scalar -> bool
(** Class check: float opcodes accept f32/f64, integer opcodes i32/i64. *)

val unop_accepts : unop -> Types.scalar -> bool

val cmp_accepts : Types.scalar -> bool
(** Comparisons accept every non-mask scalar (predicates are
    width-polymorphic); masks themselves are combined with And/Or/Xor. *)

val equal_binop : binop -> binop -> bool
val equal_unop : unop -> unop -> bool
val equal_cmp : cmp -> cmp -> bool

val binop_name : binop -> string
val unop_name : unop -> string
val cmp_name : cmp -> string
val pp_binop : binop Fmt.t
val pp_unop : unop Fmt.t
val pp_cmp : cmp Fmt.t

val binop_code : binop -> int
(** Dense stable code for packing opcodes into int-array keys. *)

val unop_code : unop -> int
val cmp_code : cmp -> int
