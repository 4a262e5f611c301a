(** The kernel catalog: the paper's Table 2 plus the whole-benchmark
    composition used by Figures 11-12. *)

open Lslp_ir

type kernel = {
  key : string;
  benchmark : string;
  origin : string;
  source : string;
}

val table2 : kernel list
(** The 8 SPEC kernels + 3 motivating examples of Table 2, in the paper's
    order. *)

val loops : kernel list
(** Loop-form kernels: counted loops that need the unroll/region-formation
    layer before anything can vectorize. *)

val conds : kernel list
(** Branching kernels: per-element if/else the frontend flattens into
    masked straight-line code (if-conversion). *)

val all : kernel list

val find : string -> kernel
(** @raise Invalid_argument on unknown keys. *)

val compile : kernel -> Func.t
(** Compile a fresh copy (every call returns new instructions). *)

val compile_key : string -> Func.t

type benchmark = {
  bname : string;
  kernel_keys : string list;
  filler_copies : int;
      (** copies of the scalar filler diluting execution time *)
  common_copies : int;
      (** copies of the configuration-insensitive vectorizable region that
          keep whole-benchmark cost ratios near 100% *)
}

val full_benchmarks : benchmark list
