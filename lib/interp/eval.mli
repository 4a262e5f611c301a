(** Reference interpreter and execution simulator for the IR.

    Executes scalar and vector instructions alike over a {!Memory.t}, and
    charges every executed instruction its cost from a
    {!Lslp_costmodel.Model.t}; the accumulated total is the simulated cycle
    count used by the performance experiments. *)

open Lslp_ir

type scalar_value =
  | VI of int64
  | VF of float
  | VI32 of int32
  | VF32 of float  (** kept single-rounded *)
  | VB of bool  (** one i1 mask lane *)
type rvalue = S of scalar_value | V of scalar_value array

exception Trap of string
(** Dynamic type confusion, division by zero, missing bindings, or lane
    mismatches — all indicate an IR or vectorizer bug in this codebase. *)

type stats = { mutable cycles : int; mutable executed : int }

val run :
  ?cost:Lslp_costmodel.Model.t ->
  Func.t ->
  int_args:(string * int64) list ->
  float_args:(string * float) list ->
  mem:Memory.t ->
  stats
(** Execute the function body once, mutating [mem].  [cost] defaults to
    {!Lslp_costmodel.Model.skylake_machine}. *)

(**/**)

(* Exposed for focused unit tests of arithmetic semantics. *)
val int_binop : Opcode.binop -> int64 -> int64 -> int64
val float_binop : Opcode.binop -> float -> float -> float
val scalar_binop : Opcode.binop -> scalar_value -> scalar_value -> scalar_value
val scalar_unop : Opcode.unop -> scalar_value -> scalar_value
val scalar_cmp : Opcode.cmp -> scalar_value -> scalar_value -> scalar_value
