(** Differential fuzzing of the whole pipeline.

    Property: for any generated program, any configuration, with or without
    injected faults, {!Lslp_core.Pipeline.run} never raises, leaves valid
    IR, and preserves behaviour against the scalar oracle; with no fault
    armed it degrades no region but for a spent budget.  Case [k] is a
    pure function of (arm, inject spec, seed, [k]). *)

type failure = {
  case : int;
  desc : string;
  config_name : string;  (** the case's configuration, drawn or forced *)
  injected : string option;
  problem : string;
}

type arm =
  | Classic of Lslp_core.Config.t option
      (** the classic shape mix under the drawn configuration, or under
          the given one *)
  | Cond
      (** only branching masked-IR programs (guarded stores, selects,
          masked loads), configuration drawn *)
  | Cache_diff
      (** the memoized look-ahead scorer on and off must agree on the IR,
          the remarks and the region counts; no fault injection *)

type outcome =
  | Passed of {
      config_name : string;
      vectorized : int;
      degraded : int;
      injected : bool;
    }
  | Failed of failure

val unforced_degradation :
  faults:bool -> Lslp_core.Pipeline.report -> string option
(** The failure of a case whose run degraded a region on its own: the
    first [Degraded] region of the report, described, when [faults] is
    false (no injector armed).  A [Budget_exhausted] region is a resource
    cap doing its job and never fails a case; with [faults] set every
    rollback is expected, so the result is [None]. *)

val case :
  ?arm:arm ->
  ?inject_spec:Lslp_robust.Inject.t ->
  seed:int ->
  int ->
  outcome
(** [case ~seed k] runs case [k] from one PRNG seeded by [(seed, k)]:
    the program, a configuration index (drawn even when [arm] forces one,
    so that forcing the drawn configuration replays the case exactly), the
    [validate] flag and, without [inject_spec], an injector armed on about
    a quarter of the cases.  [inject_spec] is re-seeded per case.  The
    default arm is [Classic None].  Never raises: an exception inside the
    case is its failure. *)

type stats = {
  cases : int;
  failures : failure list;
  vectorized : int;
  degraded : int;
  injected_runs : int;
}

val stats : outcome array -> stats
(** The one fold: outcome [k] is case [k]'s. *)

val run :
  ?cases:int ->
  ?seed:int ->
  ?arm:arm ->
  ?inject_spec:Lslp_robust.Inject.t ->
  unit ->
  stats
(** The sequential sweep: {!stats} of cases [0 .. cases-1].  [cases]
    defaults to 500, [seed] to 42. *)

val ok : stats -> bool

val pp_summary : stats Fmt.t
(** Stable across seeds/OCaml versions when there are no failures
    (["fuzz: N case(s): 0 failure(s)"]) — safe for cram tests. *)

val pp_detail : stats Fmt.t
(** RNG-dependent counters (vectorized/degraded/fault cases); the CLI
    prints this to stderr. *)

val to_json : stats -> string
(** The run's machine form, minified ([lslpc fuzz --json]): cases,
    failures (with program text and armed injector), aggregate counters
    and the [ok] verdict. *)
