(* The compile service: fault survival, the verified cache, the pool's
   typed outcomes and sharded-fuzz determinism.

   The headline QCheck property is the ISSUE's fault-survival gate in
   miniature: arm ANY single service-boundary fault at ANY job and the
   batch still completes — the faulted job ends as the sequential result
   (alpha-renamed) or as a typed failure, every other job is untouched,
   and nothing hangs or raises out of [Service.batch]. *)

module Service = Lslp_service.Service
module Pool = Lslp_service.Pool
module Cache = Lslp_service.Cache
module Shard = Lslp_service.Shard
module Fuzz = Lslp_fuzz.Fuzz
module Inject = Lslp_robust.Inject
module Budget = Lslp_robust.Budget
module Config = Lslp_core.Config
module Catalog = Lslp_kernels.Catalog
module Stats = Lslp_telemetry.Pool_stats
module Flight = Lslp_obs.Flight
module Registry = Lslp_obs.Registry

let config = Config.lslp
let unroll = 4

let jobs_of kernels =
  Array.of_list
    (List.map
       (fun (k : Catalog.kernel) ->
         { Service.label = k.key; source = k.source; unroll })
       kernels)

(* A small, fixed slice of the catalog keeps each property case cheap. *)
let some_jobs = jobs_of (List.filteri (fun i _ -> i < 8) Catalog.all)
let njobs = Array.length some_jobs

let quiet_pool domains =
  { Pool.default_config with domains; queue_cap = 16; retries = 2 }

(* Sequential, fault-free expectation per job label: what every Done
   outcome must reproduce modulo instruction-id renaming (the service
   already normalizes). *)
let baseline =
  lazy
    (let svc =
       Service.create ~cache:false ~pool:(quiet_pool 1) config
     in
     Array.map
       (function
         | Pool.Done (s : Service.success) -> s.ir
         | Pool.Degraded_to_failure _ ->
           Alcotest.fail "baseline batch degraded without faults")
       (Service.batch svc some_jobs))

(* ---- the fault-survival property ---------------------------------- *)

let fault_survival_prop (point, target, seed) =
  let spec = Inject.make ~points:[ point ] ~rate:1.0 ~seed () in
  let inject_for i = if i = target then Some spec else None in
  let pool =
    { (quiet_pool 4) with deadline_steps = Some 50_000 }
  in
  let svc = Service.create ~cache:true ~inject_for ~pool config in
  let outcomes = Service.batch svc some_jobs in
  let expected = Lazy.force baseline in
  Array.length outcomes = njobs
  && Array.for_all
       (fun i ->
         match outcomes.(i) with
         | Pool.Done (s : Service.success) -> s.ir = expected.(i)
         | Pool.Degraded_to_failure _ -> i = target)
       (Array.init njobs (fun i -> i))

let fault_survival =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:24
       ~name:"any single service fault -> complete batch, typed failures"
       ~print:(fun (p, t, s) ->
         Fmt.str "%s@job%d seed=%d" (Inject.point_name p) t s)
       QCheck2.Gen.(
         triple (oneofl Inject.service_points) (int_bound (njobs - 1))
           (int_bound 1000))
       fault_survival_prop)

(* ---- flight recorder vs counters: exact reconciliation ------------- *)

(* For any single service fault per round, the flight recording and the
   counter view must tell the same story: every job's recording ends in
   exactly one terminal event per round (completed | failed | shed), each
   of the twelve counters equals the count of the event kinds it folds,
   and the histograms saw exactly the jobs their instrumentation point
   covers — latency one sample per completion, attempts one sample per
   completed-or-failed job.  The cold round arms the fault at [target];
   the warm round arms it at the next job, whose clean cold result is
   cached, so the warm round hits, verifies and, under cache-poison,
   evicts.  No tolerance anywhere: a single double-count or missed event
   fails. *)
let metrics_reconcile_prop (point, target, seed) =
  let spec = Inject.make ~points:[ point ] ~rate:1.0 ~seed () in
  let warm_target = njobs + ((target + 1) mod njobs) in
  let inject_for i =
    if i = target || i = warm_target then Some spec else None
  in
  let pool = { (quiet_pool 4) with deadline_steps = Some 50_000 } in
  let svc = Service.create ~cache:true ~inject_for ~pool config in
  let cold = Service.batch svc some_jobs in
  let warm = Service.batch ~index_base:njobs svc some_jobs in
  let outcomes = Array.append cold warm in
  let s = Service.stats svc in
  let events = Flight.events (Service.flight svc) in
  let terminal = Hashtbl.create 16 in
  List.iter
    (fun (e : Flight.event) ->
      match e.Flight.kind with
      | ("completed" | "failed" | "shed") as kind ->
        Hashtbl.replace terminal e.Flight.job
          (kind
           :: (Option.value ~default:[]
                 (Hashtbl.find_opt terminal e.Flight.job)))
      | _ -> ())
    events;
  let events_of kind =
    List.length
      (List.filter (fun (e : Flight.event) -> e.Flight.kind = kind) events)
  in
  let hcount name =
    match Registry.histogram_view (Service.registry svc) name with
    | Some v -> v.Registry.hcount
    | None -> -1
  in
  let one_terminal_per_round =
    Array.for_all
      (fun (j : Service.job) ->
        match Hashtbl.find_opt terminal j.Service.label with
        | Some [ _; _ ] -> true
        | Some _ | None -> false)
      some_jobs
  in
  one_terminal_per_round
  && Array.length outcomes = 2 * njobs
  && events_of "completed" = s.Stats.jobs_completed
  && events_of "failed" = s.Stats.jobs_failed
  && events_of "shed" = s.Stats.jobs_shed
  && s.Stats.jobs_completed + s.Stats.jobs_failed + s.Stats.jobs_shed
     = 2 * njobs
  && s.Stats.jobs_submitted = 2 * njobs
  && s.Stats.jobs_submitted = events_of "enqueued" + events_of "shed"
  && s.Stats.jobs_retried = events_of "retried"
  && s.Stats.jobs_timed_out = events_of "timeout"
  && s.Stats.workers_respawned = events_of "respawn"
  && s.Stats.cache_hits = events_of "cache-hit"
  && s.Stats.cache_misses = events_of "cache-miss"
  && s.Stats.cache_verified = events_of "cache-verified"
  && s.Stats.cache_evicted = events_of "cache-evicted"
  && s.Stats.cache_inserts = events_of "cache-insert"
  && hcount "lslp_job_latency_ticks" = s.Stats.jobs_completed
  && hcount "lslp_job_attempts"
     = s.Stats.jobs_completed + s.Stats.jobs_failed
  && s.Stats.jobs_failed + s.Stats.jobs_shed + s.Stats.cache_evicted
     = Service.degradations svc outcomes

let metrics_reconcile =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:24
       ~name:"any single service fault -> flight events reconcile with stats"
       ~print:(fun (p, t, s) ->
         Fmt.str "%s@job%d seed=%d" (Inject.point_name p) t s)
       QCheck2.Gen.(
         triple (oneofl Inject.service_points) (int_bound (njobs - 1))
           (int_bound 1000))
       metrics_reconcile_prop)

(* ---- pool outcomes ------------------------------------------------- *)

(* worker-raise at rate 1.0: every attempt crashes, the retry cap is
   consumed, the job degrades with the crash recorded, and the pool
   respawned a worker per death without losing any other job. *)
let pool_retries_exhausted () =
  let spec = Inject.make ~points:[ Inject.Worker_raise ] ~rate:1.0 ~seed:7 () in
  let inject_for i = if i = 2 then Some spec else None in
  let svc = Service.create ~cache:false ~inject_for ~pool:(quiet_pool 4) config in
  let outcomes = Service.batch svc some_jobs in
  (match outcomes.(2) with
   | Pool.Degraded_to_failure { attempts; failure = Pool.Crashed _ } ->
     Helpers.check_int "attempts = 1 + retries" 3 attempts
   | Pool.Degraded_to_failure { failure; _ } ->
     Alcotest.failf "wrong failure: %a" Pool.pp_failure failure
   | Pool.Done _ -> Alcotest.fail "job 2 should have degraded");
  let s = Service.stats svc in
  Helpers.check_int "retried" 2 s.Stats.jobs_retried;
  Helpers.check_int "failed" 1 s.Stats.jobs_failed;
  Array.iteri
    (fun i o ->
      if i <> 2 then
        match o with
        | Pool.Done _ -> ()
        | Pool.Degraded_to_failure _ ->
          Alcotest.failf "job %d degraded without a fault" i)
    outcomes

let pool_shed () =
  let spec = Inject.make ~points:[ Inject.Queue_full ] ~rate:1.0 ~seed:1 () in
  let inject_for i = if i = 0 then Some spec else None in
  let svc = Service.create ~cache:false ~inject_for ~pool:(quiet_pool 2) config in
  let outcomes = Service.batch svc some_jobs in
  (match outcomes.(0) with
   | Pool.Degraded_to_failure { attempts = 0; failure = Pool.Shed } -> ()
   | _ -> Alcotest.fail "job 0 should have been shed at admission");
  Helpers.check_int "shed counter" 1 (Service.stats svc).Stats.jobs_shed

let pool_deadline () =
  let pool = { (quiet_pool 2) with deadline_steps = Some 1; retries = 0 } in
  let svc = Service.create ~cache:false ~pool config in
  let outcomes = Service.batch svc some_jobs in
  Array.iter
    (function
      | Pool.Degraded_to_failure { failure = Pool.Timed_out { steps = 1 }; _ }
        -> ()
      | Pool.Degraded_to_failure { failure; _ } ->
        Alcotest.failf "wrong failure: %a" Pool.pp_failure failure
      | Pool.Done _ ->
        Alcotest.fail "a 1-step deadline cannot fit any kernel")
    outcomes;
  Helpers.check_int "timeouts" njobs
    (Service.stats svc).Stats.jobs_timed_out

(* The deadline cancels the whole job and restores the function: after
   [Deadline_expired] propagates out of Pipeline.run, the input is
   byte-identical to what went in. *)
let deadline_restores () =
  let f = Catalog.compile_key "453.vsumsqr" in
  ignore (Lslp_frontend.Unroll.run ~factor:unroll f);
  let before = Lslp_ir.Printer.func_to_string f in
  let config = Config.with_deadline (Budget.deadline 2) config in
  (match Lslp_core.Pipeline.run ~config f with
   | _ -> Alcotest.fail "a 2-step deadline cannot fit this kernel"
   | exception Budget.Deadline_expired { steps } ->
     Helpers.check_int "expired at the configured budget" 2 steps);
  Helpers.check_string "function restored on cancellation" before
    (Lslp_ir.Printer.func_to_string f)

(* ---- the verified cache ------------------------------------------- *)

(* Round 1 misses and inserts; round 2 front-hits, re-verifies every hit
   and serves the identical payload. *)
let cache_hit_verify () =
  let svc = Service.create ~cache:true ~pool:(quiet_pool 1) config in
  let cold = Service.batch svc some_jobs in
  let warm = Service.batch ~index_base:njobs svc some_jobs in
  let s = Service.stats svc in
  Helpers.check_int "misses (cold round)" njobs s.Stats.cache_misses;
  Helpers.check_int "inserts (cold round)" njobs s.Stats.cache_inserts;
  Helpers.check_int "hits (warm round)" njobs s.Stats.cache_hits;
  Helpers.check_int "every hit verified" njobs s.Stats.cache_verified;
  Helpers.check_int "no evictions" 0 s.Stats.cache_evicted;
  Array.iteri
    (fun i cold_o ->
      match (cold_o, warm.(i)) with
      | Pool.Done (c : Service.success), Pool.Done (w : Service.success) ->
        Helpers.check_bool "cold round compiled" false c.from_cache;
        Helpers.check_bool "warm round cached" true w.from_cache;
        Helpers.check_string "identical IR" c.ir w.ir;
        Helpers.check_string "identical remarks" (String.concat "\n" c.remarks)
          (String.concat "\n" w.remarks)
      | _ -> Alcotest.fail "clean batches cannot degrade")
    cold

(* Poison one warm job's entry: the digest check must catch the damage, evict
   and recompile — the job still succeeds with the baseline IR, and the
   eviction is counted. *)
let cache_poison_evicts () =
  let target = njobs + 3 in
  let spec = Inject.make ~points:[ Inject.Cache_poison ] ~rate:1.0 ~seed:5 () in
  let inject_for i = if i = target then Some spec else None in
  let svc = Service.create ~cache:true ~inject_for ~pool:(quiet_pool 1) config in
  let _cold = Service.batch svc some_jobs in
  let warm = Service.batch ~index_base:njobs svc some_jobs in
  let s = Service.stats svc in
  Helpers.check_int "one eviction" 1 s.Stats.cache_evicted;
  (match warm.(3) with
   | Pool.Done (w : Service.success) ->
     Helpers.check_bool "poisoned entry not served from cache" false
       w.from_cache;
     Helpers.check_string "recompiled to the baseline IR"
       (Lazy.force baseline).(3) w.ir
   | Pool.Degraded_to_failure _ ->
     Alcotest.fail "a poisoned cache must recompile, not fail");
  (* the poisoned-and-evicted entry stayed out: the targeted job's
     injector was armed, so nothing was re-inserted for it *)
  Helpers.check_int "entry count" (njobs - 1) (Service.cache_entries svc)

(* Damage a stored payload after insert: the cold round's IR string is the
   very string the cache stored, so flipping one of its bytes in place
   stands in for memory corruption of what a hit would serve.  The hit's
   digest check must catch it, evict, and recompile to the baseline. *)
let cache_damaged_payload_evicts () =
  let svc = Service.create ~cache:true ~pool:(quiet_pool 1) config in
  let cold = Service.batch svc some_jobs in
  (match cold.(3) with
   | Pool.Done (c : Service.success) ->
     let b = Bytes.unsafe_of_string c.ir in
     Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1))
   | Pool.Degraded_to_failure _ -> Alcotest.fail "clean batch degraded");
  let warm = Service.batch ~index_base:njobs svc some_jobs in
  let s = Service.stats svc in
  Helpers.check_int "one eviction" 1 s.Stats.cache_evicted;
  Helpers.check_int "the other hits verified" (njobs - 1)
    s.Stats.cache_verified;
  match warm.(3) with
  | Pool.Done (w : Service.success) ->
    Helpers.check_bool "damaged entry not served from cache" false
      w.from_cache;
    Helpers.check_string "recompiled to the baseline IR"
      (Lazy.force baseline).(3) w.ir
  | Pool.Degraded_to_failure _ ->
    Alcotest.fail "a damaged payload must recompile, not fail"

(* A result whose function fails legality against its snapshot is never
   stored: two stores to one address, swapped after the snapshot. *)
let cache_rejects_illegal_insert () =
  let metrics = Stats.metrics () in
  let cache = Cache.create ~metrics () in
  let source =
    "kernel k(f64 A[], f64 B[], i64 i) {\n\
    \  A[i] = B[i];\n\
    \  A[i] = B[i+1];\n\
     }"
  in
  let fingerprint = Config.fingerprint config in
  let source_key = Cache.source_key ~source ~unroll:1 ~fingerprint in
  let func = Lslp_frontend.Lower.compile_string source in
  let input_norm = Lslp_ir.Printer.func_to_string func in
  let snap = Lslp_check.Legality.snapshot func in
  let block = Lslp_ir.Func.entry func in
  let instrs = Lslp_ir.Block.to_list block in
  (match List.filter Lslp_ir.Instr.is_store instrs with
   | [ s1; s2 ] ->
     Lslp_ir.Block.set_order block
       (List.map
          (fun i -> if i == s1 then s2 else if i == s2 then s1 else i)
          instrs)
   | l -> Alcotest.failf "expected 2 stores, got %d" (List.length l));
  let payload =
    {
      Cache.ir = Lslp_util.Normalize.ids (Lslp_ir.Printer.func_to_string func);
      remarks = [];
      counters = [];
      vectorized = 0;
    }
  in
  Cache.insert cache ~label:"k" ~source_key ~input_norm ~fingerprint ~snap
    ~func payload;
  let s = Stats.view metrics in
  Helpers.check_int "not stored" 0 (Cache.length cache);
  Helpers.check_int "no insert counted" 0 s.Stats.cache_inserts;
  Helpers.check_int "one eviction" 1 s.Stats.cache_evicted;
  Helpers.check_bool "front lookup misses" true
    (Cache.find_by_source cache ~label:"k" ~source_key ~poison:false = None);
  Helpers.check_bool "content lookup misses" true
    (Cache.find_by_ir cache ~label:"k" ~source_key ~input_norm ~fingerprint
       ~poison:false
    = None);
  Helpers.check_int "counted as a miss" 1 (Stats.view metrics).Stats.cache_misses

let cache_off () =
  let svc = Service.create ~cache:false ~pool:(quiet_pool 1) config in
  let r1 = Service.batch svc some_jobs in
  let r2 = Service.batch ~index_base:njobs svc some_jobs in
  let s = Service.stats svc in
  Helpers.check_int "no hits" 0 s.Stats.cache_hits;
  Helpers.check_int "no inserts" 0 s.Stats.cache_inserts;
  Array.iter
    (function
      | Pool.Done (x : Service.success) ->
        Helpers.check_bool "never from cache" false x.from_cache
      | Pool.Degraded_to_failure _ -> Alcotest.fail "clean batch degraded")
    (Array.append r1 r2)

(* ---- parked worker domains ---------------------------------------- *)

(* [n] jobs that each record the domain running them; each waits until
   [n] jobs have started, so no worker can drain the batch alone and
   every worker of an [n]-domain run records its domain. *)
let domain_ids_of_run n =
  let started = Atomic.make 0 in
  let jobs =
    Array.init n (fun i ->
        ( Fmt.str "job-%d" i,
          fun ~inject:_ ~deadline:_ ->
            Atomic.incr started;
            while Atomic.get started < n do
              Domain.cpu_relax ()
            done;
            (Domain.self () :> int) ))
  in
  Pool.run { (quiet_pool n) with queue_cap = n } jobs
  |> Array.to_list
  |> List.map (function
       | Pool.Done id -> id
       | Pool.Degraded_to_failure _ -> Alcotest.fail "clean run degraded")
  |> List.sort_uniq compare

let pool_reuses_domains () =
  let first = domain_ids_of_run 2 in
  let second = domain_ids_of_run 2 in
  Helpers.check_int "two workers in the first run" 2 (List.length first);
  Helpers.check_bool
    (Fmt.str "second run's domains [%a] among the first's [%a]"
       Fmt.(list ~sep:comma int) second Fmt.(list ~sep:comma int) first)
    true
    (List.for_all (fun id -> List.mem id first) second)

(* Leaked workers would pass OCaml's 128-domain limit long before 300
   back-to-back 4-domain runs. *)
let pool_back_to_back () =
  let jobs =
    Array.init 8 (fun i -> (Fmt.str "job-%d" i, fun ~inject:_ ~deadline:_ -> i))
  in
  for run = 1 to 300 do
    Array.iteri
      (fun i -> function
        | Pool.Done v when v = i -> ()
        | Pool.Done _ | Pool.Degraded_to_failure _ ->
          Alcotest.failf "run %d: job %d did not complete" run i)
      (Pool.run (quiet_pool 4) jobs)
  done

(* Worker deaths end the worker loop, not the domain, but the pool's
   record of them is unchanged: the outcomes, the respawn count and the
   whole 1-domain flight dump are the ones per-batch domain spawning
   produced.  Job 1 crashes on every attempt, job 2 on its first. *)
let worker_raise_flight =
  [
    {|{"seq":0,"tick":0,"event":"enqueued","job":"job-0","attempt":-1,"seed":0,"detail":""}|};
    {|{"seq":1,"tick":0,"event":"enqueued","job":"job-1","attempt":-1,"seed":0,"detail":""}|};
    {|{"seq":2,"tick":0,"event":"enqueued","job":"job-2","attempt":-1,"seed":0,"detail":""}|};
    {|{"seq":3,"tick":0,"event":"enqueued","job":"job-3","attempt":-1,"seed":0,"detail":""}|};
    {|{"seq":4,"tick":1,"event":"dispatched","job":"job-0","attempt":0,"seed":24573073719,"detail":""}|};
    {|{"seq":5,"tick":2,"event":"completed","job":"job-0","attempt":0,"seed":24573073719,"detail":"latency=1"}|};
    {|{"seq":6,"tick":3,"event":"dispatched","job":"job-1","attempt":0,"seed":24573081910,"detail":""}|};
    {|{"seq":7,"tick":3,"event":"crashed","job":"job-1","attempt":0,"seed":24573081910,"detail":"Lslp_robust.Inject.Fault(8)"}|};
    {|{"seq":8,"tick":3,"event":"retried","job":"job-1","attempt":1,"seed":24573081911,"detail":"in 2 tick(s)"}|};
    {|{"seq":9,"tick":4,"event":"respawn","job":"","attempt":-1,"seed":0,"detail":"worker 0"}|};
    {|{"seq":10,"tick":5,"event":"dispatched","job":"job-2","attempt":0,"seed":24573090101,"detail":""}|};
    {|{"seq":11,"tick":5,"event":"crashed","job":"job-2","attempt":0,"seed":24573090101,"detail":"Lslp_robust.Inject.Fault(8)"}|};
    {|{"seq":12,"tick":5,"event":"retried","job":"job-2","attempt":1,"seed":24573090102,"detail":"in 2 tick(s)"}|};
    {|{"seq":13,"tick":6,"event":"respawn","job":"","attempt":-1,"seed":0,"detail":"worker 0"}|};
    {|{"seq":14,"tick":7,"event":"dispatched","job":"job-3","attempt":0,"seed":24573098292,"detail":""}|};
    {|{"seq":15,"tick":8,"event":"completed","job":"job-3","attempt":0,"seed":24573098292,"detail":"latency=1"}|};
    {|{"seq":16,"tick":9,"event":"dispatched","job":"job-1","attempt":1,"seed":24573081911,"detail":""}|};
    {|{"seq":17,"tick":9,"event":"crashed","job":"job-1","attempt":1,"seed":24573081911,"detail":"Lslp_robust.Inject.Fault(8)"}|};
    {|{"seq":18,"tick":9,"event":"retried","job":"job-1","attempt":2,"seed":24573081912,"detail":"in 4 tick(s)"}|};
    {|{"seq":19,"tick":10,"event":"respawn","job":"","attempt":-1,"seed":0,"detail":"worker 0"}|};
    {|{"seq":20,"tick":11,"event":"dispatched","job":"job-2","attempt":1,"seed":24573090102,"detail":""}|};
    {|{"seq":21,"tick":12,"event":"completed","job":"job-2","attempt":1,"seed":24573090102,"detail":"latency=7"}|};
    {|{"seq":22,"tick":14,"event":"dispatched","job":"job-1","attempt":2,"seed":24573081912,"detail":""}|};
    {|{"seq":23,"tick":14,"event":"crashed","job":"job-1","attempt":2,"seed":24573081912,"detail":"Lslp_robust.Inject.Fault(8)"}|};
    {|{"seq":24,"tick":14,"event":"failed","job":"job-1","attempt":2,"seed":24573081912,"detail":"retries exhausted"}|};
  ]

let pool_worker_raise_unchanged () =
  let raise_at rate = Inject.make ~points:[ Inject.Worker_raise ] ~rate ~seed:0 () in
  let always = raise_at 1.0 and half = raise_at 0.5 in
  let inject_for = function 1 -> Some always | 2 -> Some half | _ -> None in
  let config =
    { Pool.default_config with domains = 1; queue_cap = 4; inject_for;
      job_seed = 3 }
  in
  let metrics = Stats.metrics () in
  let jobs =
    Array.init 4 (fun i ->
        (Fmt.str "job-%d" i, fun ~inject:_ ~deadline:_ -> i * i))
  in
  let outcomes = Pool.run ~metrics config jobs in
  let show = function
    | Pool.Done v -> Fmt.str "done %d" v
    | Pool.Degraded_to_failure { attempts; failure } ->
      Fmt.str "degraded %d %a" attempts Pool.pp_failure failure
  in
  Helpers.check_string "outcomes"
    "done 0; degraded 3 crashed: Lslp_robust.Inject.Fault(8); done 4; done 9"
    (String.concat "; " (Array.to_list (Array.map show outcomes)));
  Helpers.check_int "respawned" 3 (Stats.view metrics).Stats.workers_respawned;
  Helpers.check_string "flight dump"
    (String.concat "\n" worker_raise_flight ^ "\n")
    (Flight.to_jsonl metrics.Stats.flight)

(* The counters live outside the flight ring: events the ring overwrote
   still count, and the first surviving [seq] shows exactly the excess
   as overwritten. *)
let counts_survive_ring_overwrite () =
  let metrics = Stats.metrics () in
  let n = 5000 in
  for i = 0 to n - 1 do
    Stats.record metrics ~tick:i ~job:(Fmt.str "job-%d" i)
      (if i mod 2 = 0 then Stats.Enqueued else Stats.Cache_miss "k")
  done;
  let s = Stats.view metrics in
  Helpers.check_int "every enqueue counted" (n / 2) s.Stats.jobs_submitted;
  Helpers.check_int "every miss counted" (n / 2) s.Stats.cache_misses;
  let events = Flight.events metrics.Stats.flight in
  Helpers.check_int "ring holds its cap" 4096 (List.length events);
  Helpers.check_int "first surviving seq = the excess" 904
    (List.hd events).Flight.seq

let await_reraises () =
  (match Pool.await (Pool.launch (fun () -> raise Exit)) with
   | () -> Alcotest.fail "await swallowed the thunk's exception"
   | exception Exit -> ());
  let ran = Atomic.make false in
  Pool.await (Pool.launch (fun () -> Atomic.set ran true));
  Helpers.check_bool "launcher still runs thunks" true (Atomic.get ran)

(* A job runs under the minor heap of the domain that ran the pool, and a
   parked worker follows that domain back when it restores its setting. *)
let pool_adopts_minor_heap () =
  let saved = Gc.get () in
  let sizes_read_by_jobs () =
    Pool.run (quiet_pool 2)
      (Array.init 4 (fun i ->
           ( Fmt.str "job-%d" i,
             fun ~inject:_ ~deadline:_ -> (Gc.get ()).Gc.minor_heap_size )))
    |> Array.map (function
         | Pool.Done words -> words
         | Pool.Degraded_to_failure _ -> Alcotest.fail "clean run degraded")
  in
  let doubled = 2 * saved.Gc.minor_heap_size in
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      Gc.set { saved with Gc.minor_heap_size = doubled };
      Array.iter
        (Helpers.check_int "a job reads the caller's size" doubled)
        (sizes_read_by_jobs ()));
  Array.iter
    (Helpers.check_int "after the restore, the caller's old size"
       saved.Gc.minor_heap_size)
    (sizes_read_by_jobs ())

(* ---- the cache under concurrent hits ------------------------------ *)

(* Two domains hit one entry 200 times each; one hit of the first domain
   is poisoned.  The damaged copy is evicted exactly once, nothing
   raises, every payload returned passed its digest check and is the
   stored object itself, and the compiled function still validates
   clean. *)
let cache_concurrent_poison () =
  let metrics = Stats.metrics () in
  let cache = Cache.create ~metrics () in
  let source = (List.hd Catalog.all).Catalog.source in
  let fingerprint = Config.fingerprint config in
  let source_key = Cache.source_key ~source ~unroll ~fingerprint in
  let func = Lslp_frontend.Lower.compile_string source in
  ignore (Lslp_frontend.Unroll.run ~factor:unroll func);
  let input_norm = Lslp_ir.Printer.func_to_string func in
  let snap = Lslp_check.Legality.snapshot func in
  let report = Lslp_core.Pipeline.run ~config func in
  let payload =
    {
      Cache.ir = Lslp_util.Normalize.ids (Lslp_ir.Printer.func_to_string func);
      remarks = [];
      counters = [];
      vectorized = report.Lslp_core.Pipeline.vectorized_regions;
    }
  in
  Cache.insert cache ~label:"k" ~source_key ~input_norm ~fingerprint ~snap
    ~func payload;
  let ready = Atomic.make 0 in
  let hits ~poison_at () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let served = ref 0 in
    for i = 0 to 199 do
      match
        Cache.find_by_source cache ~label:"k" ~source_key
          ~poison:(i = poison_at)
      with
      | Some p ->
        if p != payload then Alcotest.fail "served a foreign payload";
        incr served
      | None -> ()
    done;
    !served
  in
  let other = Domain.spawn (hits ~poison_at:(-1)) in
  let mine = hits ~poison_at:50 () in
  let served = mine + Domain.join other in
  let s = Stats.view metrics in
  Helpers.check_int "exactly one eviction" 1 s.Stats.cache_evicted;
  Helpers.check_int "every payload served passed its replay"
    s.Stats.cache_verified served;
  Helpers.check_int "entry gone" 0 (Cache.length cache);
  Helpers.check_string "shared function untouched by the poisoning" ""
    (String.concat "; "
       (List.map Lslp_check.Diagnostic.to_string
          (Lslp_check.Legality.validate snap func)))

(* ---- sharded fuzzing ---------------------------------------------- *)

let shard_determinism () =
  let pool = { Pool.default_config with domains = 4; queue_cap = 16 } in
  let outcomes = Shard.run ~pool ~cases:40 ~seed:11 () in
  let stats = Fuzz.stats outcomes in
  Helpers.check_int "all cases ran" 40 stats.Fuzz.cases;
  (match Shard.check_against_sequential ~seed:11 outcomes with
   | [] -> ()
   | case :: _ -> Alcotest.failf "case %d: sharded <> sequential" case);
  match stats.Fuzz.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "fuzz case %d failed under sharding: %s" f.Fuzz.case
      f.Fuzz.problem

(* The pooled sweep and the sequential one run the same cases: for every
   arm their folds agree field for field. *)
let shard_arms_match_sequential () =
  let pool = { Pool.default_config with domains = 4; queue_cap = 16 } in
  List.iter
    (fun (name, arm) ->
      let pooled = Fuzz.stats (Shard.run ~arm ~pool ~cases:60 ~seed:42 ()) in
      let sequential = Fuzz.run ~arm ~cases:60 ~seed:42 () in
      Helpers.check_string name (Fuzz.to_json sequential)
        (Fuzz.to_json pooled);
      Helpers.check_bool (name ^ ": equal stats") true (pooled = sequential))
    [
      ("default", Fuzz.Classic None);
      ("lslp", Fuzz.Classic (Some Config.lslp));
      ("cond", Fuzz.Cond);
      ("cache-diff", Fuzz.Cache_diff);
    ]

let suite =
  [
    fault_survival;
    metrics_reconcile;
    Helpers.tc "pool: retries exhausted -> typed crash" pool_retries_exhausted;
    Helpers.tc "pool: queue-full fault -> typed shed" pool_shed;
    Helpers.tc "pool: 1-step deadline times every job out" pool_deadline;
    Helpers.tc "deadline: cancellation restores the function"
      deadline_restores;
    Helpers.tc "cache: warm round hits, verifies, reuses" cache_hit_verify;
    Helpers.tc "cache: poisoned entry evicts and recompiles"
      cache_poison_evicts;
    Helpers.tc "cache: off means off" cache_off;
    Helpers.tc "shard: 4-domain fuzz == sequential, case by case"
      shard_determinism;
    Helpers.tc "pool: a second run reuses the first run's domains"
      pool_reuses_domains;
    Helpers.tc "pool: 300 back-to-back 4-domain runs complete"
      pool_back_to_back;
    Helpers.tc "pool: worker-raise outcomes, respawns and flight unchanged"
      pool_worker_raise_unchanged;
    Helpers.tc "stats: counts survive flight ring overwrite"
      counts_survive_ring_overwrite;
    Helpers.tc "pool: await re-raises the thunk's exception" await_reraises;
    Helpers.tc "pool: a job runs under the caller's minor heap"
      pool_adopts_minor_heap;
    Helpers.tc "cache: concurrent hits, one poisoned, evict once"
      cache_concurrent_poison;
    Helpers.tc "cache: a damaged payload evicts and recompiles"
      cache_damaged_payload_evicts;
    Helpers.tc "cache: an illegal result is never stored"
      cache_rejects_illegal_insert;
    Helpers.tc "shard: every arm's pooled stats equal the sequential sweep's"
      shard_arms_match_sequential;
  ]
