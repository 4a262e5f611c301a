(** Instructions and values of the straight-line IR.

    Instructions carry an [id], unique within their function (identity
    semantics), and a mutable [kind] so passes can rewrite operands in
    place.  A function numbers its instructions from 1 with its own
    {!Lslp_util.Id_gen}, so the same function built the same way prints
    the same labels whatever else the process compiled.  Memory is
    accessed through {!address} records — an array symbol plus an affine
    element index — which keeps address arithmetic out of the use-def
    graph, mirroring the GEP+SCEV split that LLVM's SLP vectorizer relies
    on. *)

type const =
  | Cint of int64
  | Cfloat of float
  | Cint32 of int32
  | Cfloat32 of float  (** kept single-rounded *)

type address = {
  base : string;       (** array argument the access goes through *)
  elt : Types.scalar;  (** element type of the array *)
  index : Affine.t;    (** element index, affine in integer arguments *)
  access_lanes : int;  (** 1 = scalar access, n >= 2 = vector access *)
}

type t = private {
  id : int;
  mutable kind : kind;
  mutable ty : Types.t;
  mutable name : string;
}

and kind =
  | Binop of Opcode.binop * value * value
  | Unop of Opcode.unop * value
  | Load of address
  | Store of address * value
  | Cmp of Opcode.cmp * value * value
      (** compare lanes; result has the same lane count at element type i1 *)
  | Select of value * value * value
      (** [(mask, a, b)]: per lane, [a] where the mask lane is true, else
          [b] *)
  | Masked_load of address * value * value
      (** [(addr, mask, passthrough)]: masked-off lanes read nothing and
          yield the passthrough lane *)
  | Masked_store of address * value * value
      (** [(addr, v, mask)]: masked-off lanes write nothing — a may-write
          for dependence purposes *)
  | Splat of value          (** broadcast a scalar into all lanes *)
  | Buildvec of value list  (** gather scalars into a vector *)
  | Extract of value * int  (** extract one lane of a vector *)
  | Reduce of Opcode.binop * value
      (** horizontal reduction of all lanes into a scalar *)
  | Shuffle of value * int list
      (** single-source lane permutation: lane k of the result is lane
          [List.nth idx k] of the source *)

and value = Const of const | Arg of arg | Ins of t

and arg = { arg_name : string; arg_ty : arg_ty }

and arg_ty = Int_arg | Float_arg | Array_arg of Types.scalar

val create : ids:Lslp_util.Id_gen.t -> ?name:string -> kind -> Types.t -> t
(** Fresh instruction whose id is drawn from [ids], the id source of the
    function it will live in ({!Block.ids}).  Prefer {!Builder} in client
    code; this is the low-level constructor. *)

val copy : ids:Lslp_util.Id_gen.t -> t -> t
(** Duplicate under a fresh id drawn from [ids], carrying over every other
    field (kind, type, name, and any field added later).  The single cloning
    primitive behind {!Func.clone} and the unroller; operands still point at
    the original instructions — remap them afterwards with
    {!map_operands}. *)

val set_kind : t -> kind -> unit
(** Reinstate a previously captured [kind] — the rollback primitive behind
    transactional regions ({!Lslp_robust.Transact}).  [kind] is the only
    mutable field any pass writes, so saving it (plus the block's
    instruction order) snapshots a block completely. *)

val map_address_index : (Affine.t -> Affine.t) -> t -> unit
(** Rewrite the address index of a (masked) load/store in place; no-op on
    non-memory instructions.  Used by the unroller to shift the loop
    counter in replicated bodies. *)

val equal : t -> t -> bool

val const_ty : const -> Types.t
val value_ty : value -> Types.t option
(** Type of a value; [None] for array arguments, which are not first-class. *)

val operands : t -> value list
val set_operands : t -> value list -> unit
(** Replace the operands, keeping the kind.
    @raise Invalid_argument if the operand count does not match. *)

val iter_operands : (value -> unit) -> t -> unit
(** [List.iter f (operands i)] without building the list. *)

val map_operands : (value -> value) -> t -> unit
(** Calls [f] once per operand, left to right, and rewrites [kind] only
    when some operand comes back physically different: an identity map
    leaves [i.kind] physically unchanged. *)

val is_store : t -> bool
val is_load : t -> bool
val is_memory_access : t -> bool
val has_side_effect : t -> bool
val address : t -> address option
val binop : t -> Opcode.binop option
val is_commutative : t -> bool

(** Opcode classes: two instructions are candidates for the same vectorizable
    group iff their classes are equal. *)
type opclass =
  | C_binop of Opcode.binop
  | C_unop of Opcode.unop
  | C_cmp of Opcode.cmp
  | C_select
  | C_load
  | C_store
  | C_masked_load
  | C_masked_store
  | C_splat
  | C_buildvec
  | C_extract
  | C_reduce of Opcode.binop
  | C_shuffle

val opclass : t -> opclass
val equal_opclass : opclass -> opclass -> bool

val same_opclass : t -> t -> bool
(** [equal_opclass (opclass a) (opclass b)], without allocating either
    class. *)

val opclass_name : opclass -> string

val equal_const : const -> const -> bool
val equal_value : value -> value -> bool
(** Instruction values compare by identity; constants bitwise; arguments by
    name. *)

val value_id : value -> int option
