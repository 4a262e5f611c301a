(** Cost evaluation of an SLP graph against the configured cost model
    (vector savings per bundle + gather costs + external-use extracts). *)

open Lslp_ir

type node_kind =
  | Vector_bundle of Instr.t array  (** a group's bundle *)
  | Multi_bundle of Instr.t array   (** one internal bundle of a multi-node *)
  | Shuffle_lanes of int            (** a gather emitted as one shuffle *)
  | Gather_lanes of int             (** a gather assembled lane by lane *)

type node_cost = {
  nid : int;
  kind : node_kind;
  cost : int;
}

val description : node_cost -> string
(** The per-node label of {!pp_summary} (["add x4"], ["multi:add x4"],
    ["shuffle x4"], ["gather x4"]), built on demand. *)

type summary = {
  per_node : node_cost list;
  extract_cost : int;
  total : int;
}

val bundle_cost : Lslp_costmodel.Model.t -> Instr.t array -> int
(** [vector_cost - Σ scalar_cost] for one bundle (negative = saving). *)

val evaluate :
  ?ignore_users:(Instr.t -> bool) ->
  ?uses:Use_info.t ->
  Config.t ->
  Graph.t ->
  Block.t ->
  summary
(** [ignore_users] marks instructions about to be deleted by the caller
    (e.g. a reduction chain), whose uses must not be charged extracts.
    [uses] shares def-use info (an arena snapshot) already computed for
    the same un-mutated block; a fresh snapshot is taken otherwise. *)

val profitable : Config.t -> summary -> bool
(** [summary.total < config.threshold]. *)

val pp_summary : summary Fmt.t
