(** Bundles: one candidate value per vector lane, plus the paper's
    termination conditions for growing the SLP graph.

    {!classify} runs its checks on the bundle in place and builds the
    instruction array only for a vectorizable verdict; block membership,
    positions, independence and memory adjacency come from the dependence
    graph's arena (int compares). *)

open Lslp_ir
open Lslp_analysis

type t = Instr.value array

type reject_reason =
  | Not_all_instructions
  | Not_isomorphic
  | Duplicate_member
  | Different_block
  | Not_schedulable
  | Already_in_graph
  | Non_consecutive_loads
  | Unsupported_shape

val reject_to_string : reject_reason -> string

type verdict =
  | Vectorizable of Instr.t array
  | Rejected of reject_reason

val classify :
  deps:Depgraph.t ->
  in_graph:(Instr.t -> bool) ->
  t ->
  verdict
(** The full termination-condition check (Section 2.3, footnote 1): scalar
    instructions, isomorphic, unique, same block (in [deps]' arena, the
    snapshot of the block being grown), mutually independent, not yet
    claimed; memory bundles must be consecutive runs.  The first
    failing condition, in that order, is the reject reason. *)

val of_insts : Instr.t array -> t

val operand_column : Instr.t array -> index:int -> t
(** Column [index] of the operand matrix: the [index]-th operand of each
    lane. *)

val pp : t Fmt.t
