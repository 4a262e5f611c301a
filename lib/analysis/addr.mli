(** Address analysis over affine subscripts (SCEV-lite).

    Answers the two memory questions the (L)SLP algorithm asks: adjacency
    (for wide loads/stores) and aliasing (for dependence/scheduling).
    Distinct array arguments are assumed non-aliasing. *)

open Lslp_ir

val same_array : Instr.address -> Instr.address -> bool

val element_distance : Instr.address -> Instr.address -> int option
(** [element_distance a b] is [Some (index_b - index_a)] in elements when the
    two accesses are to the same array and differ by a constant. *)

val consecutive : Instr.address -> Instr.address -> bool
(** [consecutive a b]: does [b] start exactly where [a] ends? *)

val may_alias : Instr.address -> Instr.address -> bool

val consecutive_run : Instr.address list -> bool
(** Whether the list forms a run of adjacent accesses in the given order. *)
