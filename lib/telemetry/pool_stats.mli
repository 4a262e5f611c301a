(** Compile-service pool metrics.

    Each pool and cache transition is written once, as an {!event} passed
    to {!record}, the only writer of the service counters, gauge and
    histograms in an {!Lslp_obs.Registry}; it also appends the event to
    an {!Lslp_obs.Flight} ring.  Counters and recording agree by
    construction, and events the ring overwrites still count.  The flat
    record {!t} is a {e read view} ({!view}) for the accounting tests and
    the `--stats` renderers.

    Deterministic for a given (job list, configuration, fault spec):
    retries, timeouts, shedding and cache evictions are all driven by the
    seeded injector and the pool's virtual clock, never by wall time, so
    smoke tests pin the counters and — on a 1-domain pool — whole
    exposition dumps are byte-reproducible. *)

type t = {
  jobs_submitted : int;
  jobs_completed : int;
  jobs_retried : int;
  jobs_timed_out : int;
  jobs_shed : int;
  jobs_failed : int;
  workers_respawned : int;
  cache_hits : int;
  cache_misses : int;
  cache_verified : int;
  cache_evicted : int;
  cache_inserts : int;
}

(** One pool or cache transition, with the values its metrics need:
    ready-queue depths, latency and retry delay in virtual ticks, and the
    entry's canonical key on cache events.  DESIGN.md §17 tables the
    metrics {!record} folds each kind into. *)
type event =
  | Enqueued
  | Dispatched of { depth : int }
  | Completed of { attempts : int; latency : int; depth : int }
  | Timeout of { steps : int }
  | Crashed of string  (** the exception's message *)
  | Retried of { delay : int }
  | Failed of { attempts : int }
  | Shed
  | Respawn of { slot : int }
  | Cache_hit of string
  | Cache_poison of string
  | Cache_verified of string
  | Cache_evicted of { key : string; reason : string }
  | Cache_miss of string
  | Cache_insert of string

type counters
(** The registry handles, reachable only through {!record} and
    {!view}. *)

type metrics = private {
  registry : Lslp_obs.Registry.t;
  flight : Lslp_obs.Flight.t;
  counters : counters;
}

val metrics : unit -> metrics
(** Register the service metric family on a fresh registry and attach a
    flight recorder of 4096 events. *)

val record :
  metrics -> tick:int -> job:string -> ?attempt:int -> ?seed:int -> event ->
  unit
(** Fold the event into the registry, then append it to the flight ring
    with its kind (enqueued, dispatched, …, cache-insert) and detail.
    Both lock themselves, so any domain may call it. *)

val view : metrics -> t
(** Consistent flat snapshot of the twelve counters — what
    [Service.stats] returns and `test_service` accounting asserts on. *)

val pp : t Fmt.t
