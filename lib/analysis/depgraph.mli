(** Dependence graph of a basic block (data + memory dependences).

    Any topological order of this graph preserves straight-line semantics;
    that fact underlies both the bundle-schedulability check (contract groups,
    test acyclicity) and post-vectorization rescheduling, which are one
    operation here: {!schedule}. *)

open Lslp_ir

type t

val build : Block.t -> t
(** Snapshot the block into a fresh {!Arena} and build over it. *)

val build_arena : Arena.t -> t
(** Build over an arena the caller already holds; positions and aliasing
    come off its precomputed tables.  The direct dependences are CSR int
    arrays, O(n + E + P) for E data edges and P same-array pairs with a
    store, no allocation per edge; the n^2/8-byte closure is one sweep
    over the rows in a topological order: ascending position when every
    edge points backward (any verified block), else {!schedule}'s order.
    @raise Invalid_argument if the dependences are cyclic. *)

val direct_preds : Arena.t -> int list array
(** A list view, built per call, of the direct dependences {!build_arena}
    stores: position [i]'s entry lists the positions it depends on
    directly, memory edges (in descending position) before data edges (in
    reverse operand order), operands walked by {!Instr.iter_operands}. *)

val arena : t -> Arena.t

val mem : t -> Instr.t -> bool
(** Was this instruction part of the block the graph was built from?
    Instructions created later (by code generation) are not members. *)

val depends : t -> Instr.t -> on:Instr.t -> bool
(** Transitive (strict) dependence.
    @raise Invalid_argument if either instruction is not a member. *)

val reaches : t -> int -> int -> bool
(** [depends] by compact index (position in the underlying arena): one
    byte read and a mask into the bit-packed closure, no id lookup.
    Unchecked — callers index with positions obtained from {!arena}. *)

val independent : t -> Instr.t list -> bool
(** No member transitively depends on another — the paper's per-bundle
    "schedulable" termination condition. *)

val schedule : t -> unit_of:int array -> key:int array -> int array option
(** Stable topological order of a contraction: instruction position [i]
    belongs to unit [unit_of.(i)], and the units are [0 .. Array.length
    key - 1].  Repeatedly emits the ready unit (every unit it depends on
    already emitted) with the least [(key.(u), u)], so with [key] = each
    unit's earliest member position the original order survives wherever
    the dependences allow it.  [None] when the contraction is cyclic — the
    units cannot be scheduled together.

    Key contract: any ints, duplicates allowed; only their [(key, unit)]
    order matters.  Keys spanning fewer than [4U + 64] values (codegen's
    distinct positions) are ranked by a counting pass, others by one sort.
    The ready set is a bitmap over those ranks, so the schedule costs
    O(n + E) for the edges plus at most O(U / 32) word reads per emitted
    unit (usually one) for n instructions, E direct dependences and U
    units; the sort, when it runs, adds O(U log U). *)
