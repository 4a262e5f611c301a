(** Pass-level instrumentation: counters, per-pass step counts and the
    decision trace.

    One probe per region (basic block); the pipeline threads it through
    seed collection, graph building, operand reordering, code generation
    and reduction vectorization, then aggregates the snapshots into
    {!Report.t}.  Counters and steps are deterministic per (input,
    configuration), so golden tests pin both.

    With [Config.trace] on, the pipeline attaches the run's
    {!Lslp_trace.Trace} sink to each block's probe, so the probe is the
    only observability handle a pass receives: {!span} records pass
    boundaries and {!record} decision events, each stamped with the
    block's label. *)

type counters = {
  mutable seeds_collected : int;
      (** seed bundles {!Lslp_core.Seeds.collect} found *)
  mutable seeds_tried : int;  (** seed bundles the driver attempted *)
  mutable score_evals : int;
      (** look-ahead score computations actually performed (recursive
          comparisons included; cache hits excluded) *)
  mutable score_hits : int;   (** comparisons served from a score cache *)
  mutable score_misses : int;
      (** cacheable comparisons that had to be computed *)
  mutable graph_nodes : int;  (** fresh SLP-graph nodes built *)
  mutable instrs_emitted : int;
      (** instructions code generation materialized (vector ops, gathers,
          extracts, reductions) in committed regions *)
  mutable regions_vectorized : int;
  mutable regions_degraded : int;  (** regions rolled back to scalar *)
}

val zero_counters : unit -> counters
val add_counters : into:counters -> counters -> unit

val counter_fields : (string * (counters -> int)) list
(** Display-order (label, projection) pairs shared by every renderer. *)

type t

val create : ?sink:Lslp_trace.Trace.t -> ?label:string -> unit -> t
(** A probe with zeroed counters and no steps.  With [sink] it also
    records into that decision trace, stamping each event with [label]
    (default [""]). *)

val counters : t -> counters

val tracing : t -> bool
(** A sink is attached: instrumentation sites build a payload for
    {!record} only when this holds. *)

val record : t -> Lslp_trace.Trace.payload -> unit
(** Append one event to the attached sink, stamped with the probe's
    label; no-op without a sink. *)

val fresh_gid : t -> int
(** A sink-unique SLP-graph id for [Graph_start] events; 0 without a
    sink. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** Charge one step to the pass name, then run the thunk, so a thunk that
    raises is still counted.  With a sink attached the thunk is bracketed
    by [Span_begin]/[Span_end] events, the end event recorded on the
    exception path too. *)

type snapshot = {
  s_counters : counters;
  s_steps : (string * int) list;  (** (pass, calls) in first-seen order *)
}

val snapshot : t -> snapshot
val empty_snapshot : snapshot

val merge : snapshot list -> snapshot
(** Pointwise sum; step passes keep first-seen order across the inputs. *)
