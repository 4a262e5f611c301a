(* The [batch-mixed] workload: a closed loop of fixed-size batches through
   [Service.batch] with the cache on and a 2-domain pool.

   A round is a fresh service whose cache is warmed with every catalog
   source outside the clock, then every batch of the round.  About three
   quarters of a batch repeat a warmed source (front-table hits, each
   replaying the legality validator under the cache mutex); the rest are
   catalog sources under a fresh kernel name, so the canonical key misses
   and the job pays the whole miss path. *)

open Common
module Service = Lslp_service.Service
module Pool = Lslp_service.Pool
module Cache = Lslp_service.Cache
module Stats = Lslp_telemetry.Pool_stats
module Registry = Lslp_obs.Registry

let pool_config = { Pool.default_config with Pool.domains }
let new_service () = Service.create ~cache:true ~pool:pool_config config
let index_base b = Inputs.warmup_count + (b * Inputs.batch_size)

(* Set-up: the seeded inputs and one service brought up with a warm cache.
   Its warm-up runs on a 1-domain pool, so set-up time measures the work of
   filling the cache rather than how two domains happen to be scheduled. *)
let setup ~seed =
  let batches = Inputs.batch_mixed ~seed in
  let svc =
    Service.create ~cache:true ~pool:{ pool_config with Pool.domains = 1 } config
  in
  ignore (Service.batch svc (Inputs.warmup_jobs ()));
  batches

(* ---- the traced replay of the service ---------------------------------- *)

type replay_cache = {
  metrics : Stats.metrics;
  cache : Cache.t;
  pass_metrics : Lslp_telemetry.Pass_metrics.t;
}

let fresh_cache () =
  let metrics = Stats.metrics () in
  {
    metrics;
    cache = Cache.create ~metrics ();
    pass_metrics =
      Lslp_telemetry.Pass_metrics.create ~root:"batch" metrics.Stats.registry;
  }

let replay_job s rc job =
  Span.request s ~root:Span.job (fun ctx ->
      Replay.service_job ctx ~cache:rc.cache ~pass_metrics:rc.pass_metrics
        ~config ~fingerprint:(Config.fingerprint config) job)

(* Every job of a round on 1 domain, in submission order. *)
let replay_round s ~warmup ~batches ~on_result =
  let rc = fresh_cache () in
  let run = replay_job s rc in
  Array.iteri (fun i job -> on_result ~batch:(-1) i (run job)) warmup;
  Array.iteri
    (fun b batch -> Array.iteri (fun i (job, _) -> on_result ~batch:b i (run job)) batch)
    batches

(* Allocation-probe mode: inputs, one untimed replay round so lazy
   initialisation is done, then the measured round. *)
let probe ~seed =
  let batches = Inputs.batch_mixed ~seed in
  let warmup = Inputs.warmup_jobs () in
  let counters = ref [] in
  replay_round (Span.summary ~keep:0 ()) ~warmup ~batches
    ~on_result:(fun ~batch:_ _ _ -> ());
  let s = Span.summary ~keep:0 () in
  replay_round s ~warmup ~batches ~on_result:(fun ~batch:_ _ r ->
      counters := r.Service.counters :: !counters);
  (s, List.rev !counters)

(* A 2-domain pool batch of replayed jobs, the traced twin of
   [Service.batch]. *)
let pool_replay s rc jobs =
  Pool.run ~metrics:rc.metrics pool_config
    (Array.map
       (fun (job : Service.job) ->
         (job.Service.label, fun ~inject:_ ~deadline:_ -> replay_job s rc job))
       jobs)

let run ~seed ~seconds ~trace =
  let setup_s, batches = timed_setup (fun () -> setup ~seed) in
  let warmup = Inputs.warmup_jobs () in
  (* gate 1: every distinct source compiled sequentially by the real
     pipeline, checked by the validator and the oracle *)
  let expected = Hashtbl.create 256 in
  let expect_of (job : Service.job) =
    match Hashtbl.find_opt expected job.Service.source with
    | Some e -> e
    | None ->
      let source = job.Service.source in
      let e =
        check_program job.Service.label
          ~reference:(Lslp_frontend.Lower.compile_string source)
          (frontend source)
      in
      Hashtbl.replace expected job.Service.source e;
      e
  in
  let catalog = Array.to_list (Array.map expect_of warmup) in
  Array.iter (Array.iter (fun (job, _) -> ignore (expect_of job))) batches;
  let job_ok (job : Service.job) ~fresh = function
    | Pool.Done (s : Service.success) ->
      let e = expect_of job in
      s.Service.ir = e.ir
      && s.Service.from_cache = not fresh
      && s.Service.degraded = 0
      && s.Service.vectorized = e.vectorized
      && s.Service.counters = e.counters
    | Pool.Degraded_to_failure _ -> false
  in
  let cache_ok (st : Stats.t) =
    st.Stats.cache_verified = st.Stats.cache_hits && st.Stats.cache_evicted = 0
  in
  (* gate 2: one round through the real service, kept for the replay *)
  let gate = new_service () in
  let gate_warm = Service.batch gate warmup in
  Array.iteri
    (fun i o ->
      if not (job_ok warmup.(i) ~fresh:true o) then
        fail "%s: service result differs from Pipeline.run" warmup.(i).Service.label)
    gate_warm;
  let gate_out =
    Array.mapi
      (fun b batch ->
        let jobs = Array.map fst batch in
        let out = Service.batch ~index_base:(index_base b) gate jobs in
        Array.iteri
          (fun i o ->
            if not (job_ok jobs.(i) ~fresh:(snd batch.(i)) o) then
              fail "%s: service result differs from Pipeline.run"
                jobs.(i).Service.label)
          out;
        out)
      batches
  in
  let gst = Service.stats gate in
  if not (cache_ok gst) then
    fail "cache: %d hits, %d verified, %d evicted" gst.Stats.cache_hits
      gst.Stats.cache_verified gst.Stats.cache_evicted;
  (* [compile_batch] runs one batch and returns its outcomes; the clock
     covers exactly that call *)
  let rounds seconds ~start ~compile_batch ~stats =
    let lat = samples ~domains () in
    for_rounds seconds lat (fun _ ->
        (* every round starts with no garbage left by the one before *)
        Gc.full_major ();
        let r = start () in
        Array.iteri
          (fun b batch ->
            let jobs = Array.map fst batch in
            let t0 = Span.now_ns () in
            let out = compile_batch r b jobs in
            push lat (Span.now_ns () - t0);
            sample_heap lat;
            Array.iteri
              (fun i o -> check (job_ok jobs.(i) ~fresh:(snd batch.(i)) o))
              out)
          batches;
        check (cache_ok (stats r)));
    lat
  in
  let untraced seconds =
    rounds seconds
      ~start:(fun () ->
        let svc = new_service () in
        ignore (Service.batch svc warmup);
        svc)
      ~compile_batch:(fun svc b jobs -> Service.batch ~index_base:(index_base b) svc jobs)
      ~stats:Service.stats
  in
  let jobs_per_s lat = per_second lat ~per:Inputs.batch_size in
  if not trace then begin
    let lat = untraced seconds in
    ( [ ("throughput_per_s", jobs_per_s lat, "1/s") ]
      @ latency_metrics lat @ quality_metrics catalog
      @ [ ("peak_heap_mb", peak_heap_mb lat, "MB"); ("setup_s", setup_s, "s") ],
      Printf.sprintf "batches of %d jobs on %d domains, %s" Inputs.batch_size
        domains (sample_note lat ~per:Inputs.batch_size) )
  end
  else begin
    (* fidelity: the gate's round replayed on 1 domain must give the same
       success records as the real service *)
    replay_round (Span.summary ~keep:0 ()) ~warmup ~batches
      ~on_result:(fun ~batch i r ->
        let real = if batch < 0 then gate_warm.(i) else gate_out.(batch).(i) in
        if real <> Pool.Done r then
          fail "%s: traced replay diverges from Service.batch" r.Service.label);
    let untraced = jobs_per_s (untraced (seconds /. 2.)) in
    let s = Span.summary () in
    let discard = Span.summary ~keep:0 () in
    let lat =
      rounds (seconds /. 2.)
        ~start:(fun () ->
          let rc = fresh_cache () in
          ignore (pool_replay discard rc warmup);
          rc)
        ~compile_batch:(fun rc _ jobs -> pool_replay s rc jobs)
        ~stats:(fun rc -> Stats.view rc.metrics)
    in
    write_trace "batch-mixed" s;
    let ticks q =
      match Registry.histogram_view (Service.registry gate) "lslp_job_latency_ticks" with
      | Some h -> float_of_int (Registry.percentile h q)
      | None -> 0.
    in
    let hits = float_of_int gst.Stats.cache_hits in
    ( time_metrics s @ core_counts catalog
      @ share_metrics s ~root:Span.job
      @ [
          ( "cache.hit_ratio",
            ratio hits (hits +. float_of_int gst.Stats.cache_misses),
            "ratio" );
          ( "pool.parallel_efficiency",
            ratio
              (secs s.Span.t_incl_ns.(Span.job))
              (secs (total lat) *. float_of_int domains),
            "ratio" );
          ("pool.latency_ticks_p50", ticks 0.5, "ticks");
          ("pool.latency_ticks_p95", ticks 0.95, "ticks");
          ("pool.retries", float_of_int gst.Stats.jobs_retried, "count");
          ("pool.cores", cores (), "count");
          ("service.job_us", Span.incl_us s Span.job, "us");
        ]
      @ overhead_metrics ~untraced ~traced:(jobs_per_s lat) s,
      Printf.sprintf "%d traced batches of %d jobs on %d domains" lat.len
        Inputs.batch_size domains )
  end
