(** Dead code elimination: removes every instruction with no side effect
    whose users are all removed, whole dead trees included.  Returns the
    number of instructions removed; the survivors keep their order.

    One sweep over one {!Arena}: use counts from its CSR table and a
    worklist of instructions whose count reached zero, O(n + uses).  It
    removes exactly what iterating "drop every unused instruction" to a
    fixed point removes. *)

val run_block : Block.t -> int
val run : Func.t -> int
