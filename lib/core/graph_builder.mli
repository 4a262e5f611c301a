(** SLP-graph construction: the paper's Listing 3 with LSLP's Listing-4
    multi-node coarsening, parameterized by the reordering strategy. *)

open Lslp_ir

val build :
  ?note:(Lslp_check.Remark.note -> unit) ->
  ?meter:Lslp_robust.Budget.meter ->
  ?probe:Lslp_telemetry.Probe.t ->
  ?ids:Lslp_util.Id_gen.t ->
  ?deps:Lslp_analysis.Depgraph.t ->
  Config.t ->
  Block.t ->
  Instr.t array ->
  Graph.t * Graph.node
(** Build the graph rooted at the given seed bundle (usually consecutive
    stores) within one block.  Pure with respect to the IR: nothing is
    mutated.
    [note] receives one event per rejected column, capped multi-node and
    FAILED reorder slot, for the remarks engine.
    [meter] charges one node per fresh bundle and look-ahead fuel per
    reorder comparison; when a cap is hit the build raises
    [Lslp_robust.Budget.Exhausted] (the pipeline degrades the region).
    May also raise [Lslp_robust.Inject.Fault] when the config arms fault
    injection at the reorder boundary.
    [probe] counts fresh graph nodes and score evaluations and, when
    tracing, records the finished graph ([Graph_start]/[Graph_node]/
    [Graph_edge]/[Dep_edge]) plus the reorder decisions made along the
    way.
    [ids] is the node-id source threaded by the pipeline so nids stay
    unique and deterministic per run (fresh per build otherwise).
    [deps] shares a dependence graph (and its arena snapshot) already
    built for the same un-mutated block; a fresh one is built otherwise. *)

val build_columns :
  ?note:(Lslp_check.Remark.note -> unit) ->
  ?meter:Lslp_robust.Budget.meter ->
  ?probe:Lslp_telemetry.Probe.t ->
  ?ids:Lslp_util.Id_gen.t ->
  ?deps:Lslp_analysis.Depgraph.t ->
  ?desc:string ->
  Config.t ->
  Block.t ->
  Bundle.t list ->
  Graph.t * Graph.node list
(** Build one node per value column within a single shared graph — the
    entry point reduction vectorization uses for its leaf chunks.
    [desc] labels the graph's [Graph_start] trace event (default
    ["reduction"]). *)
