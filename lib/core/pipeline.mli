(** The (L)SLP pass driver — the flowchart of the paper's Figure 1.

    Per basic block of the function: repeatedly collect seeds, build the
    graph for the next unconsumed seed, cost it, vectorize when profitable.
    Transforms the function in place.  Every region ends in exactly one
    verdict, a {!Lslp_check.Remark.t}: its [block] names the block the
    region lives in and its [outcome] says what happened.

    {!run} is fail-soft: each region transforms inside a transactional
    snapshot ({!Lslp_robust.Transact}), so malformed graphs, resource-budget
    exhaustion ({!Lslp_robust.Budget}), injected faults
    ({!Lslp_robust.Inject}) and structural-verifier findings roll the region
    back to its scalar form and surface as a [Degraded] (or
    [Budget_exhausted]) outcome — they never raise out of the pipeline.  A
    whole-function snapshot backstops driver bugs the same way.  Only [Out_of_memory] and [Sys.Break] propagate. *)

open Lslp_ir

type report = {
  config_name : string;
  regions : Lslp_check.Remark.t list;
      (** one verdict per region considered, in decision order; never a
          [Reduction_unmatched], and notes only with [config.remarks] *)
  total_cost : int;  (** sum of the vectorized regions' costs *)
  vectorized_regions : int;  (** [Vectorized] regions *)
  degraded_regions : int;
      (** [Degraded] and [Budget_exhausted] regions; 0 on any healthy run *)
  remarks : Lslp_check.Remark.t list;
      (** [regions] plus the unmatched reduction candidates, in decision
          order; empty unless [config.remarks] *)
  diagnostics : Lslp_check.Diagnostic.t list;
      (** legality/verifier findings; empty unless [config.validate] *)
  telemetry : Lslp_telemetry.Report.t;
      (** per-block counters and pass timers, always collected.  Counters
          measure work performed — a rolled-back attempt keeps its score
          evaluations and graph nodes; only [instrs_emitted],
          [regions_vectorized] and [regions_degraded] reflect committed
          outcomes. *)
  trace_events : Lslp_trace.Trace.event list;
      (** the decision trace in recording order; empty unless
          [config.trace].  Events recorded before a whole-function failure
          survive into the degraded report.  Render with the
          {!Lslp_trace.Trace} exporters. *)
}

val run :
  ?metrics:Lslp_telemetry.Pass_metrics.t -> ?config:Config.t -> Func.t ->
  report
(** Run on [f], mutating it.  [config] defaults to {!Config.lslp}.
    With [metrics], the finished report is folded into the registry
    ([Pass_metrics.observe]) before returning — counters, step
    histograms and folded stacks; zero cost and output-invariant when
    omitted.
    With [config.validate] the pre-pass dependence graph is snapshotted and
    the transformed function is checked against it ({!Lslp_check.Legality});
    the structural verifier also runs after codegen, reduction, CSE and DCE,
    attributing any new error to the pass that introduced it.

    Independent of [validate], every freshly transformed block is checked by
    the structural verifier *inside* its transaction: a finding aborts and
    rolls back that region (degrading it) instead of producing a diagnostic
    on a miscompiled function. *)

val run_cloned :
  ?metrics:Lslp_telemetry.Pass_metrics.t -> ?config:Config.t -> Func.t ->
  report * Func.t
(** Like {!run} but on a deep copy, leaving the input untouched. *)

val pp_report : report Fmt.t
(** One line per region with its cost ([+0] when never costed) and its
    outcome; the degraded count and [\[degraded: ...\]] markers only appear
    when something degraded. *)
