(** Differential fuzzing of the whole pipeline.

    Property: for any generated program, any configuration, with or without
    injected faults, {!Lslp_core.Pipeline.run} never raises, leaves valid
    IR, and preserves behaviour against the scalar oracle.  Fully
    deterministic per root seed. *)

type failure = {
  case : int;
  desc : string;
  config_name : string;
  injected : string option;
  problem : string;
}

type stats = {
  cases : int;
  failures : failure list;
  vectorized : int;
  degraded : int;
  injected_runs : int;
}

val run :
  ?cases:int ->
  ?seed:int ->
  ?cond:bool ->
  ?config:Lslp_core.Config.t ->
  ?inject_spec:Lslp_robust.Inject.t ->
  unit ->
  stats
(** [cases] defaults to 500, [seed] to 42.  Without [config] each case
    draws from a pool of seven configurations (and a random [validate]
    flag).  [inject_spec] — typically parsed from [--inject] — is re-seeded
    per case; without it, a quarter of the cases arm a random low-rate
    injector anyway.  [~cond:true] (the [lslpc fuzz --config cond] arm)
    draws only branching masked-IR programs — guarded stores, selects,
    masked loads — instead of the classic shape mix. *)

type case_outcome = {
  case : int;
  ok : bool;
  summary : string;
  c_vectorized : int;
  c_degraded : int;
  c_injected : bool;
}
(** One case's result under the indexed derivation.  [summary] is a pure
    function of (seed, case, config, inject spec) — the string the sharded
    and sequential runs compare verbatim. *)

val run_case_indexed :
  ?config:Lslp_core.Config.t ->
  ?cond:bool ->
  ?inject_spec:Lslp_robust.Inject.t ->
  seed:int ->
  case:int ->
  unit ->
  case_outcome
(** Run case [case] from a per-case PRNG seeded by [(seed, case)] rather
    than one stream threaded across cases.  Case [k] is a pure function of
    [(seed, k)] alone, so a Domain pool may run cases in any order and a
    sequential rerun reproduces every outcome verbatim — the determinism
    assertion behind [lslpc fuzz --jobs N].  Note the case streams differ
    from {!run}'s single-stream derivation, so aggregate counts differ
    between [run] and a sweep of [run_case_indexed]; each is internally
    deterministic. *)

val run_cache_diff : ?cases:int -> ?seed:int -> unit -> stats
(** Differential check of the memoized look-ahead scorer
    ([lslpc fuzz --config cache-diff]): each generated program runs through
    the same drawn configuration with {!Lslp_core.Config.with_score_cache}
    on and off; any difference in the printed IR, the remarks or the
    region counts is a failure.  Fault injection stays off — its RNG would
    make the two runs diverge for unrelated reasons. *)

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
