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
    come off its precomputed tables. *)

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
    units cannot be scheduled together.  O((n + E) log U) for n
    instructions, E direct dependences and U units. *)
