(** Per-block instruction arena: an int-indexed view of a block's
    instruction array ({!Block.instrs}), which it does not copy, with an
    id → index map, CSR use lists and a lazily built address table of
    interned base symbols and affine shapes ({!Addr_intern}).  Use
    counts, positions, adjacency and aliasing become array reads and int
    compares.

    Compact indices are per-arena coordinates; printed IR only ever shows
    the ids the block's function issued ({!Block.ids}).  An arena keeps
    reading the state it was built on, since a block never rewrites a
    slot below its length; any pass that mutates the block builds a new
    one.  One built and {!check}ed by [Verifier.check_func_arenas] may be
    reused while its block stays in the verified state.  After the block
    changes, {!idx}, {!size} and {!instr} still name the snapshotted
    instructions, which code generation relies on while it rewrites the
    block. *)

type t

val of_block : Block.t -> t
(** A view of the block's current array ({!Block.instrs}) and length: it
    copies no instruction and adds the id → index map, the use lists and,
    on the first address query, the address table. *)

val id_span : Block.t -> Lslp_util.Id_map.t
(** An empty id map over the span of the block's instruction ids. *)

val of_index : Block.t -> Lslp_util.Id_map.t -> int array -> t
(** [of_index b map uses] is {!of_block} from what a walk over the block
    built (the verifier's): [map] sends the id of the [k]-th instruction
    to [k], and [uses.(k)] (length [length b + 1]) counts its operand
    occurrences; [uses] becomes the use lists' offsets. *)

val block : t -> Block.t

val size : t -> int
val instr : t -> int -> Instr.t

val idx : t -> Instr.t -> int
(** Compact index of an instruction, or [-1] when not in the arena. *)

val idx_of_id : t -> int -> int
val mem : t -> Instr.t -> bool

val pos : t -> Instr.t -> int
(** Program-order position; identical to {!idx}. *)

(** {2 Uses (CSR)} *)

val num_uses : t -> int -> int
(** O(1): number of operand occurrences of instruction [k] in the block. *)

val users : t -> int -> Instr.t list
(** Users in program order; a double use appears twice. *)

val fold_users : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val exists_user : t -> int -> (int -> bool) -> bool
(** Some user index of instruction [k] satisfies the predicate; stops at
    the first that does. *)

(** {2 Address side table} *)

val is_memory : t -> int -> bool

val same_array : t -> int -> int -> bool

val element_distance : t -> int -> int -> int option
(** Element distance [k - j] when comparable (same array, same symbolic
    shape); mirrors [Addr.element_distance] on the instructions. *)

val consecutive : t -> int -> int -> bool
val may_alias : t -> int -> int -> bool

val addr_base : t -> int -> int
(** Interned base-symbol id of a memory access, [-1] for non-memory.
    Interning order is program order of first appearance, so the ids are
    deterministic per arena; they are arena-local coordinates and must
    never be printed. *)

val addr_shape : t -> int -> int
(** Interned symbolic-shape id of a memory access ({!Affine.terms} of its
    index), [-1] for non-memory; first-seen program order, like
    {!addr_base}. *)

val base_count : t -> int
(** Number of distinct base symbols; {!addr_base} ids are
    [0 .. base_count - 1]. *)

val addr_const : t -> int -> int
(** Constant part of the affine index (meaningless for non-memory). *)

val same_shape : t -> int -> int -> bool
(** Same interned symbolic shape (both must be memory accesses). *)

(** {2 Invariants} *)

val check : t -> (unit, string) result
(** Dense bijective ids, monotone CSR offsets, in-range and acyclic uses.
    Run by [Verifier.check_func] on every block it accepts. *)
