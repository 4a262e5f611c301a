(* Compile-service pool metrics.

   Since PR 10 the single source of truth is an [Lslp_obs.Registry]: the
   pool, the cache and the service bump typed counter/gauge/histogram
   handles held in {!metrics}, and the historical flat-counter record
   {!t} survives only as a {e read view} ({!view}) so accounting tests
   and renderers written against it keep working unchanged.

   Everything is deterministic for a given (job list, configuration,
   fault spec) — retries, timeouts, shedding and cache evictions are
   driven by the seeded injector and the pool's virtual-tick clock, never
   by wall time — so the smoke tests can pin the counters and, on a
   1-domain pool, `make metrics-check` can pin whole exposition dumps
   byte for byte. *)

module Registry = Lslp_obs.Registry
module Flight = Lslp_obs.Flight

type t = {
  mutable jobs_submitted : int;   (* accepted into the queue *)
  mutable jobs_completed : int;   (* finished with a usable result *)
  mutable jobs_retried : int;     (* re-queued after a transient fault *)
  mutable jobs_timed_out : int;   (* deadline expiries observed *)
  mutable jobs_shed : int;        (* rejected by the backpressure policy *)
  mutable jobs_failed : int;      (* retries exhausted; typed degradation *)
  mutable workers_respawned : int;(* domains torn down and replaced *)
  mutable cache_hits : int;       (* key present, before the digest check *)
  mutable cache_misses : int;
  mutable cache_verified : int;   (* hits whose payload digest matched *)
  mutable cache_evicted : int;    (* hits that failed it, recompiled, and
                                     results that failed validation at
                                     insert, never stored *)
  mutable cache_inserts : int;
}

type metrics = {
  registry : Registry.t;
  flight : Flight.t;
  submitted : Registry.counter;
  completed : Registry.counter;
  retried : Registry.counter;
  timed_out : Registry.counter;
  shed : Registry.counter;
  failed : Registry.counter;
  respawned : Registry.counter;
  c_hits : Registry.counter;
  c_misses : Registry.counter;
  c_verified : Registry.counter;
  c_evicted : Registry.counter;
  c_inserts : Registry.counter;
  queue_depth : Registry.gauge;
  latency_ticks : Registry.histogram;
  job_attempts : Registry.histogram;
  queue_at_dispatch : Registry.histogram;
  queue_at_complete : Registry.histogram;
}

(* Bucket bounds in virtual ticks / queue slots / attempts.  Fixed at
   registration so exposition shape never depends on the run. *)
let latency_buckets = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 |]
let attempt_buckets = [| 1; 2; 3; 4; 8 |]
let queue_buckets = [| 0; 1; 2; 4; 8; 16; 32; 64 |]

let metrics ?registry ?(flight_cap = 4096) () =
  let r = match registry with Some r -> r | None -> Registry.create () in
  let c name help = Registry.counter r ~help name in
  (* bind in exposition order: record-field evaluation order is
     unspecified, registration order is what the exporters walk *)
  let submitted = c "lslp_jobs_submitted_total" "Jobs accepted into the queue." in
  let completed = c "lslp_jobs_completed_total" "Jobs finished with a usable result." in
  let retried = c "lslp_jobs_retried_total" "Jobs re-queued after a transient fault." in
  let timed_out = c "lslp_jobs_timed_out_total" "Cooperative deadline expiries observed." in
  let shed = c "lslp_jobs_shed_total" "Jobs rejected by the backpressure policy." in
  let failed = c "lslp_jobs_failed_total" "Jobs whose retries were exhausted." in
  let respawned = c "lslp_workers_respawned_total" "Worker domains torn down and replaced." in
  let c_hits = c "lslp_cache_hits_total" "Cache keys present, counted before verification." in
  let c_misses = c "lslp_cache_misses_total" "Cache content misses." in
  (* the help strings are pinned byte for byte by
     bench_results/METRICS_baseline.prom: "verified" now means the hit's
     payload digest matched, "evicted" a failed digest or insert check *)
  let c_verified = c "lslp_cache_verified_total" "Cache hits that passed legality re-check." in
  let c_evicted = c "lslp_cache_evicted_total" "Cache hits that failed legality re-check." in
  let c_inserts = c "lslp_cache_inserts_total" "Clean compile results inserted." in
  let queue_depth =
    Registry.gauge r ~help:"Ready-queue depth at the last pool event."
      "lslp_queue_depth"
  in
  let latency_ticks =
    Registry.histogram r
      ~help:"Per-job latency from first dispatch to completion, virtual ticks."
      ~buckets:latency_buckets "lslp_job_latency_ticks"
  in
  let job_attempts =
    Registry.histogram r
      ~help:"Attempts per job that reached a terminal outcome."
      ~buckets:attempt_buckets "lslp_job_attempts"
  in
  let queue_at_dispatch =
    Registry.histogram r
      ~help:"Ready-queue depth sampled at each dispatch."
      ~buckets:queue_buckets "lslp_queue_depth_dispatch"
  in
  let queue_at_complete =
    Registry.histogram r
      ~help:"Ready-queue depth sampled at each completion."
      ~buckets:queue_buckets "lslp_queue_depth_complete"
  in
  {
    registry = r;
    flight = Flight.create ~cap:flight_cap ();
    submitted;
    completed;
    retried;
    timed_out;
    shed;
    failed;
    respawned;
    c_hits;
    c_misses;
    c_verified;
    c_evicted;
    c_inserts;
    queue_depth;
    latency_ticks;
    job_attempts;
    queue_at_dispatch;
    queue_at_complete;
  }

let view (m : metrics) =
  {
    jobs_submitted = Registry.value m.submitted;
    jobs_completed = Registry.value m.completed;
    jobs_retried = Registry.value m.retried;
    jobs_timed_out = Registry.value m.timed_out;
    jobs_shed = Registry.value m.shed;
    jobs_failed = Registry.value m.failed;
    workers_respawned = Registry.value m.respawned;
    cache_hits = Registry.value m.c_hits;
    cache_misses = Registry.value m.c_misses;
    cache_verified = Registry.value m.c_verified;
    cache_evicted = Registry.value m.c_evicted;
    cache_inserts = Registry.value m.c_inserts;
  }

(* The counters in display order, as {!Probe.counter_fields} lists the
   probe's. *)
let fields =
  [
    ("submitted", fun s -> s.jobs_submitted);
    ("completed", fun s -> s.jobs_completed);
    ("retried", fun s -> s.jobs_retried);
    ("timed_out", fun s -> s.jobs_timed_out);
    ("shed", fun s -> s.jobs_shed);
    ("failed", fun s -> s.jobs_failed);
    ("respawned", fun s -> s.workers_respawned);
    ("cache_hits", fun s -> s.cache_hits);
    ("cache_misses", fun s -> s.cache_misses);
    ("cache_verified", fun s -> s.cache_verified);
    ("cache_evicted", fun s -> s.cache_evicted);
    ("cache_inserts", fun s -> s.cache_inserts);
  ]

let pp ppf s =
  Fmt.pf ppf "@[<v>pool:";
  List.iter (fun (name, get) -> Fmt.pf ppf "@,  %-14s %d" name (get s)) fields;
  Fmt.pf ppf "@]"
