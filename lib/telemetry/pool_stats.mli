(** Compile-service pool metrics.

    The single source of truth is an {!Lslp_obs.Registry} plus an
    {!Lslp_obs.Flight} recorder, bundled as {!metrics}; the pool, the
    cache and the service bump the typed handles directly.  The
    historical flat-counter record {!t} survives as a {e read view}
    ({!view}) so accounting tests and the `--stats` renderers keep
    working unchanged.

    Deterministic for a given (job list, configuration, fault spec):
    retries, timeouts, shedding and cache evictions are all driven by the
    seeded injector and the pool's virtual clock, never by wall time, so
    smoke tests pin the counters and — on a 1-domain pool — whole
    exposition dumps are byte-reproducible. *)

type t = {
  mutable jobs_submitted : int;
  mutable jobs_completed : int;
  mutable jobs_retried : int;
  mutable jobs_timed_out : int;
  mutable jobs_shed : int;
  mutable jobs_failed : int;
  mutable workers_respawned : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_verified : int;
  mutable cache_evicted : int;
  mutable cache_inserts : int;
}

type metrics = {
  registry : Lslp_obs.Registry.t;
  flight : Lslp_obs.Flight.t;
  submitted : Lslp_obs.Registry.counter;
  completed : Lslp_obs.Registry.counter;
  retried : Lslp_obs.Registry.counter;
  timed_out : Lslp_obs.Registry.counter;
  shed : Lslp_obs.Registry.counter;
  failed : Lslp_obs.Registry.counter;
  respawned : Lslp_obs.Registry.counter;
  c_hits : Lslp_obs.Registry.counter;
  c_misses : Lslp_obs.Registry.counter;
  c_verified : Lslp_obs.Registry.counter;
  c_evicted : Lslp_obs.Registry.counter;
  c_inserts : Lslp_obs.Registry.counter;
  queue_depth : Lslp_obs.Registry.gauge;
  latency_ticks : Lslp_obs.Registry.histogram;
  job_attempts : Lslp_obs.Registry.histogram;
  queue_at_dispatch : Lslp_obs.Registry.histogram;
  queue_at_complete : Lslp_obs.Registry.histogram;
}

val metrics :
  ?registry:Lslp_obs.Registry.t -> ?flight_cap:int -> unit -> metrics
(** Register the service metric family on [registry] (fresh one when
    omitted) and attach a flight recorder of [flight_cap] (default 4096)
    events.  Registration is idempotent per registry. *)

val view : metrics -> t
(** Consistent flat snapshot of the twelve counters — what
    [Service.stats] returns and `test_service` accounting asserts on. *)

val pp : t Fmt.t
