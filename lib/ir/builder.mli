(** Convenience layer for constructing scalar IR.

    Infers result types, type-checks operands eagerly (raising {!Type_error}
    with a readable message), appends instructions to the function's block in
    order, and generates printable value names.

    With [~value_numbering:true] it is also the early-CSE: a pure
    instruction the current block already computes ({!Cse.find_or_add}) is
    not appended, and the first value is returned.  A dropped instruction
    has still drawn its name and id, so the function equals a plain build
    followed by {!Cse.run}.  [value_numbering] defaults to [false]. *)

type t

exception Type_error of string

val create :
  ?value_numbering:bool -> name:string ->
  args:(string * Instr.arg_ty) list -> unit -> t

val func : t -> Func.t

val current_block : t -> Block.t
(** The block subsequent instructions are appended to (initially the entry
    block). *)

val start_block : t -> ?label:string -> ?kind:Block.kind -> unit -> Block.t
(** Append a fresh block to the function and make it current.  Labels
    default to ["b0"], ["b1"], ... *)

val iconst : int -> Instr.value
val iconst64 : int64 -> Instr.value
val fconst : float -> Instr.value
val iconst32 : int -> Instr.value

val arg : t -> string -> Instr.value
(** Reference a scalar (int/float) argument by name. *)

val binop :
  t -> ?name:string -> Opcode.binop -> Instr.value -> Instr.value ->
  Instr.value

val unop : t -> ?name:string -> Opcode.unop -> Instr.value -> Instr.value

val cmp :
  t -> ?name:string -> Opcode.cmp -> Instr.value -> Instr.value -> Instr.value
(** Scalar compare: lanes in, an i1 mask out. *)

val select :
  t -> ?name:string -> Instr.value -> Instr.value -> Instr.value ->
  Instr.value
(** [select mask then_v else_v].  The two arms must agree in type; the mask
    must be i1. *)

val load : t -> ?name:string -> base:string -> Affine.t -> Instr.value
(** Scalar load [base[index]]. *)

val store : t -> base:string -> Affine.t -> Instr.value -> unit
(** Scalar store [base[index] = v]. *)

val masked_load :
  t -> ?name:string -> base:string -> Affine.t -> mask:Instr.value ->
  passthrough:Instr.value -> Instr.value
(** Guarded load: yields [base[index]] where the mask is set, the passthrough
    value where it is clear (the masked-off access is not even performed). *)

val masked_store :
  t -> base:string -> Affine.t -> Instr.value -> mask:Instr.value -> unit
(** Guarded store: writes only where the mask is set. *)

val idx : ?sym:string -> int -> Affine.t
(** [idx k] is the affine index [i + k] (with [?sym] overriding ["i"]). *)
