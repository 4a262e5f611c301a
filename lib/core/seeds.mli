(** Seed collection: runs of adjacent, same-array scalar stores cut into
    power-of-two windows (widest native width first). *)

open Lslp_ir

type seed = Instr.t array

val describe : seed -> string
(** One-line printable form ("A[i] x4"); shared by the pipeline's region
    records, the remarks and the decision trace. *)

val collect :
  ?arena:Arena.t ->
  ?probe:Lslp_telemetry.Probe.t ->
  Config.t ->
  Block.t ->
  seed list
(** Seeds of one region, ordered by the position of their first store.
    Adjacency comes off the arena's address side table (int compares);
    pass [arena] to share the snapshot the caller already built for the
    same un-mutated block, otherwise a fresh one is taken.
    [probe] counts the bundles found and, when tracing, records them as
    a [Seeds_found] event. *)
