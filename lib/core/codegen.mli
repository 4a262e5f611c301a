(** Vector code generation: replace vectorizable bundles with wide
    instructions, emit gathers/shuffles/extracts, and reschedule the block.

    The block is rebuilt from a stable topological order of contracted
    dependence units, so any legal bundling gets a correct schedule; if the
    contraction is cyclic, [Not_schedulable] is returned and the function is
    left untouched.  A [Vectorized] block holds no dead instruction: what
    the rewrite leaves dead is dropped, exactly what [Dce.run_block] would
    remove. *)

open Lslp_ir

type outcome =
  | Vectorized
  | Not_schedulable
  | Failed of string
      (** a malformed graph was detected mid-emission; the block may be
          half-rewritten — callers must roll the region back
          (see {!Lslp_robust.Transact}) *)

exception Error of string
(** Raised internally on malformed graphs (dangling node references,
    ill-typed columns, wrong operand arity), naming the offending
    bundle/lane; caught at the {!run} boundary and returned as [Failed]. *)

(** A horizontal reduction vectorized alongside the graph: the scalar chain
    is replaced by element-wise combines of the leaf chunks, one [Reduce],
    and a scalar fold of the leftover leaves. *)
type reduction = {
  red_op : Opcode.binop;
  red_root : Instr.t;           (** the chain's root (its users get rewired) *)
  red_chain : Instr.t list;     (** every chain op, root included *)
  red_chunks : Graph.node list; (** W-wide leaf bundles, in combine order *)
  red_remainder : Instr.value list;  (** leaves folded scalar after reduce *)
}

val units : ?reduction:reduction -> Graph.t -> Arena.t -> int array * int array
(** The contraction {!run} schedules, as [(unit_of, key)] for
    {!Lslp_analysis.Depgraph.schedule}: each group or multi-node of the
    graph is one unit (in node order), the reduction chain the next, and
    every other instruction a singleton unit in program order; a unit's key
    is its earliest member position. *)

val run :
  ?reduction:reduction ->
  ?record:(lanes:Instr.t array -> vector:Instr.t -> unit) ->
  ?probe:Lslp_telemetry.Probe.t ->
  ?deps:Lslp_analysis.Depgraph.t ->
  Graph.t ->
  Block.t ->
  outcome
(** [record] is invoked once per emitted vector instruction with the scalar
    lanes it replaces — the provenance feed of the legality validator.
    Multi-node internal bundles all map to the chain's final combine.
    [probe] counts the freshly materialized instructions (vector ops,
    gathers, shuffles, extracts, reduction combines), charged only when the
    outcome is [Vectorized]; when tracing, it records one [Emit] event per
    freshly materialized instruction (in emission order, including ones a
    later rollback discards).
    [deps] shares a dependence graph (and arena snapshot) already built
    for the block in its current, pre-codegen form; built fresh
    otherwise. *)

val sweep_dead :
  Arena.t -> first_new:int -> fresh:int -> Instr.t list -> Instr.t list
(** [sweep_dead arena ~first_new ~fresh rev] is the dead sweep {!run}
    applies to its emitted block: [rev] lists the block in reverse program
    order, and the result is [rev] without the instructions
    [Dce.run_block] would remove from that block (physically [rev] when
    none is dead).  Every instruction of [rev] is either in [arena] or
    fresh: its id is one of the [fresh] ids from [first_new] on. *)
