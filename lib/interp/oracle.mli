(** Differential-testing oracle: run two versions of a kernel (typically
    scalar vs vectorized) on identical seeded inputs and compare final
    memories and simulated cycle counts. *)

open Lslp_ir

type setup = {
  int_args : (string * int64) list;
  float_args : (string * float) list;
  mem : Memory.t;
}

type outcome = {
  mismatches : Memory.mismatch list;
  reference_cycles : int;
  candidate_cycles : int;
}

val compare_runs :
  ?tol:float ->
  ?cost:Lslp_costmodel.Model.t ->
  ?seed:int ->
  reference:Func.t ->
  candidate:Func.t ->
  unit ->
  outcome

val equivalent :
  ?tol:float ->
  ?cost:Lslp_costmodel.Model.t ->
  ?seed:int ->
  reference:Func.t ->
  candidate:Func.t ->
  unit ->
  bool
