(** Region formation: unroll counted loops by the vector factor so the
    block-local (L)SLP pipeline sees consecutive store runs.

    Constant-bound loops are rewritten in place: a main loop of VF-times
    replicated bodies (counter shifted by [j*step] per copy, step scaled by
    VF) plus a fully-unrolled straight epilogue for the remainder
    iterations; trip counts <= VF are fully unrolled.  Symbolic-bound loops
    are left untouched. *)

open Lslp_ir

val run : ?factor:int -> Func.t -> int
(** [run ~factor f] unrolls every eligible loop block of [f] in place and
    returns how many loops were transformed.  [factor] defaults to 4 (the
    paper's AVX2 f64/i64 vector width); values below 2 disable the pass. *)
