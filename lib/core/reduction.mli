(** Horizontal-reduction vectorization — the reduction-tree seed idiom the
    paper lists in §2.2.

    Chains of one commutative+associative opcode (with non-escaping
    intermediates) are rewritten as W-wide chunk combines + one [Reduce] +
    a scalar tail fold, when the cost model approves. *)

open Lslp_ir

type candidate = {
  cand_op : Opcode.binop;
  cand_root : Instr.t;
  cand_chain : Instr.t list;
  cand_leaves : Instr.value list;
}

val describe : candidate -> string
(** The region text of a candidate, ["reduce fadd x8"]: its opcode and
    leaf count. *)

val collect_candidates : ?uses:Use_info.t -> Block.t -> candidate list
(** Reduction-chain roots of one block in program order, with their
    leaves.  Every root is scalar-typed: a vector chain of one opcode is
    the fold codegen emitted for a store seed's multi-node, whose leaves
    are already vectors, so it is not a reduction tree of the input and
    could not be emitted as one.  [uses] shares def-use info already
    computed for the block; a fresh arena snapshot is taken otherwise. *)

type region = {
  root_desc : string;
  lanes : int;
  cost : int;
  vectorized : bool;
  not_schedulable : bool;
}

val run :
  ?config:Config.t ->
  ?meter:Lslp_robust.Budget.meter ->
  ?probe:Lslp_telemetry.Probe.t ->
  ?ids:Lslp_util.Id_gen.t ->
  ?record:(lanes:Instr.t array -> vector:Instr.t -> unit) ->
  ?on_skipped:(candidate -> unit) ->
  ?arena:Arena.t ->
  Block.t ->
  region list
(** Vectorize every profitable reduction, mutating the block.  [arena] hands
    over a snapshot of the block in its *current* state (the caller
    guarantees no mutation since [Arena.of_block]); it seeds the first
    candidate sweep and is dropped as soon as a reduction rewrites the
    block.  Candidates are collected, and the dependence graph built, once
    per snapshot.  One region record
    per candidate with at least a full chunk of leaves; [on_skipped] fires
    for candidates with too few leaves for even one chunk; [record] is
    forwarded to {!Codegen.run} for provenance; a tracing [probe] records
    the chunk graphs, the cost decision and one [Region_outcome] per
    candidate.

    Not fail-soft on its own: raises [Lslp_robust.Transact.Check_failed]
    when codegen reports a malformed graph (the block may be
    half-rewritten), [Lslp_robust.Budget.Exhausted] when [meter] runs out,
    and [Lslp_robust.Inject.Fault] under fault injection — run it inside
    {!Lslp_robust.Transact.protect} (as {!Pipeline.run} does). *)
