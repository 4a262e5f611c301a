(* Compile-service pool metrics.

   Every pool and cache transition is written once, as an {!event} handed
   to {!record}, which folds it into the registry and appends it to the
   flight ring.  The registry handles live only in the closures that fold
   events and read the view, so no other code can write a service
   metric, and the counters and the recording agree by construction. *)

module Registry = Lslp_obs.Registry
module Flight = Lslp_obs.Flight

type t = {
  jobs_submitted : int;   (* accepted into the queue *)
  jobs_completed : int;   (* finished with a usable result *)
  jobs_retried : int;     (* re-queued after a transient fault *)
  jobs_timed_out : int;   (* deadline expiries observed *)
  jobs_shed : int;        (* rejected by the backpressure policy *)
  jobs_failed : int;      (* retries exhausted; typed degradation *)
  workers_respawned : int;(* domains torn down and replaced *)
  cache_hits : int;       (* key present, before the digest check *)
  cache_misses : int;
  cache_verified : int;   (* hits whose payload digest matched *)
  cache_evicted : int;    (* hits that failed it, recompiled, and
                             results that failed validation at insert,
                             never stored *)
  cache_inserts : int;
}

type event =
  | Enqueued
  | Dispatched of { depth : int }
  | Completed of { attempts : int; latency : int; depth : int }
  | Timeout of { steps : int }
  | Crashed of string
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

(* The fold and the read view, closed over the registry's handles so
   that nothing else can reach them. *)
type counters = { fold : event -> unit; read : unit -> t }

type metrics = { registry : Registry.t; flight : Flight.t; counters : counters }

(* Bucket bounds in virtual ticks / queue slots / attempts.  Fixed at
   registration so exposition shape never depends on the run. *)
let latency_buckets = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 |]
let attempt_buckets = [| 1; 2; 3; 4; 8 |]
let queue_buckets = [| 0; 1; 2; 4; 8; 16; 32; 64 |]

let metrics () =
  let r = Registry.create () in
  let c name help = Registry.counter r ~help name in
  let hist name help buckets = Registry.histogram r ~help ~buckets name in
  (* bind in exposition order: registration order is what the exporters
     walk *)
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
    hist "lslp_job_latency_ticks"
      "Per-job latency from first dispatch to completion, virtual ticks."
      latency_buckets
  in
  let job_attempts =
    hist "lslp_job_attempts"
      "Attempts per job that reached a terminal outcome." attempt_buckets
  in
  let queue_at_dispatch =
    hist "lslp_queue_depth_dispatch"
      "Ready-queue depth sampled at each dispatch." queue_buckets
  in
  let queue_at_complete =
    hist "lslp_queue_depth_complete"
      "Ready-queue depth sampled at each completion." queue_buckets
  in
  let fold = function
    | Enqueued -> Registry.incr submitted
    | Shed ->
      Registry.incr submitted;
      Registry.incr shed
    | Dispatched { depth } ->
      Registry.observe queue_at_dispatch depth;
      Registry.set queue_depth depth
    | Completed { attempts; latency; depth } ->
      Registry.incr completed;
      Registry.observe job_attempts attempts;
      Registry.observe latency_ticks latency;
      Registry.observe queue_at_complete depth;
      Registry.set queue_depth depth
    | Timeout _ -> Registry.incr timed_out
    | Crashed _ | Cache_poison _ -> ()
    | Retried _ -> Registry.incr retried
    | Failed { attempts } ->
      Registry.incr failed;
      Registry.observe job_attempts attempts
    | Respawn _ -> Registry.incr respawned
    | Cache_hit _ -> Registry.incr c_hits
    | Cache_verified _ -> Registry.incr c_verified
    | Cache_evicted _ -> Registry.incr c_evicted
    | Cache_miss _ -> Registry.incr c_misses
    | Cache_insert _ -> Registry.incr c_inserts
  in
  let read () =
    {
      jobs_submitted = Registry.value submitted;
      jobs_completed = Registry.value completed;
      jobs_retried = Registry.value retried;
      jobs_timed_out = Registry.value timed_out;
      jobs_shed = Registry.value shed;
      jobs_failed = Registry.value failed;
      workers_respawned = Registry.value respawned;
      cache_hits = Registry.value c_hits;
      cache_misses = Registry.value c_misses;
      cache_verified = Registry.value c_verified;
      cache_evicted = Registry.value c_evicted;
      cache_inserts = Registry.value c_inserts;
    }
  in
  { registry = r; flight = Flight.create (); counters = { fold; read } }

(* Fold the event into the counters, then ring it with the kind and
   detail strings FLIGHT_baseline.jsonl pins.  The registry and the ring
   lock themselves, so this runs with or without the caller's lock. *)
let record m ~tick ~job ?attempt ?seed ev =
  m.counters.fold ev;
  let kind, detail =
    match ev with
    | Enqueued -> ("enqueued", "")
    | Dispatched _ -> ("dispatched", "")
    | Completed { latency; _ } -> ("completed", Fmt.str "latency=%d" latency)
    | Timeout { steps } -> ("timeout", Fmt.str "%d step(s)" steps)
    | Crashed msg -> ("crashed", msg)
    | Retried { delay } -> ("retried", Fmt.str "in %d tick(s)" delay)
    | Failed _ -> ("failed", "retries exhausted")
    | Shed -> ("shed", "queue full")
    | Respawn { slot } -> ("respawn", Fmt.str "worker %d" slot)
    | Cache_hit key -> ("cache-hit", key)
    | Cache_poison key -> ("cache-poison", key)
    | Cache_verified key -> ("cache-verified", key)
    | Cache_evicted { key; reason } ->
      ("cache-evicted", Fmt.str "%s: %s" key reason)
    | Cache_miss key -> ("cache-miss", key)
    | Cache_insert key -> ("cache-insert", key)
  in
  Flight.record m.flight ~tick ~job ?attempt ?seed ~detail kind

let view m = m.counters.read ()

let pp ppf s =
  Fmt.pf ppf "@[<v>pool:";
  List.iter
    (fun (name, v) -> Fmt.pf ppf "@,  %-14s %d" name v)
    [
      ("submitted", s.jobs_submitted);
      ("completed", s.jobs_completed);
      ("retried", s.jobs_retried);
      ("timed_out", s.jobs_timed_out);
      ("shed", s.jobs_shed);
      ("failed", s.jobs_failed);
      ("respawned", s.workers_respawned);
      ("cache_hits", s.cache_hits);
      ("cache_misses", s.cache_misses);
      ("cache_verified", s.cache_verified);
      ("cache_evicted", s.cache_evicted);
      ("cache_inserts", s.cache_inserts);
    ];
  Fmt.pf ppf "@]"
