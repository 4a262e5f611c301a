(** The batch compile service ("lslpd"): a fault-isolated Domain-pool
    executor with per-job deadlines, bounded retries, backpressure and a
    verified result cache.  The CLI's [lslpc batch] and [bench/serve] sit
    on this module.

    A {!job} is compiled by the frontend and [Lslp_core.Pipeline.run]
    {e in place}; the result travels back as printable strings
    (alpha-renamed IR, remarks, counters), so outcomes compare across
    domains and across cache hits.  Every fault ends in exactly one typed
    {!Pool.outcome} — never a hang, never an escaped exception, and other
    jobs in the batch are unaffected (the fault-survival property
    [test_service] checks). *)

type job = {
  label : string;
  source : string;  (** kernel source text, fed to the frontend *)
  unroll : int;  (** unroll factor; 0 or 1 disables *)
}

type success = {
  label : string;
  ir : string;  (** alpha-renamed printed IR after the pass *)
  remarks : string list;
  counters : (string * int) list;  (** [Probe.counter_fields] order *)
  vectorized : int;
  degraded : int;  (** degraded {e regions} (PR-2 fail-soft); 0 on cache
                       hits, which only ever store clean runs *)
  from_cache : bool;
}

type t
(** A service instance: compile configuration (fingerprinted once), pool
    configuration, optional cache, shared telemetry.  Reusable across
    {!batch} calls — the cache persists, which is how warm rounds and the
    smoke test's deterministic poison-then-evict sequence work. *)

val create :
  ?cache:bool ->
  ?inject_for:(int -> Lslp_robust.Inject.t option) ->
  pool:Pool.config ->
  Lslp_core.Config.t ->
  t
(** [cache] defaults to on; the flight recorder, the service's per-job
    event log, keeps the last 4096 events.  [inject_for] maps a {e global}
    job index (across batches, see [index_base]) to the fault spec armed
    for that job; it covers service points (worker-raise, worker-hang,
    cache-poison, queue-full) and pipeline points alike — the same
    injector instance is re-seeded per attempt and threaded into
    [Config.with_inject]. *)

val batch : ?index_base:int -> t -> job array -> success Pool.outcome array
(** Compile every job on the pool; outcome [i] belongs to job [i].
    [index_base] offsets the global job index of job 0 — callers running
    several rounds pass the number of jobs already submitted so fault
    targeting and injector seeds stay unique across rounds. *)

val stats : t -> Lslp_telemetry.Pool_stats.t
(** Flat snapshot of the pool/cache counters ([Pool_stats.view] of the
    shared registry); read after {!batch} returns. *)

val registry : t -> Lslp_obs.Registry.t
(** The full registry — pool/cache counters and histograms plus the
    pipeline counters and step histograms — for the exporters. *)

val flight : t -> Lslp_obs.Flight.t
(** The bounded flight recorder (`--flight-out`). *)

val cache_entries : t -> int

val degradations : t -> success Pool.outcome array -> int
(** Typed-failure jobs in [outcomes] plus cache evictions so far — the
    number the smoke gate pins ([--expect-degradations]). *)
