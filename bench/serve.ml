(* Batch-service throughput: `make bench-serve`.

   Pushes the full catalog through the Domain-pool compile service
   [reps] times and measures ns per batch in three shapes:

   - sequential, cache off: the 1-domain floor (same work as a
     bench-speed catalog pass, plus service plumbing);
   - pooled, cache off: the same workload over N domains;
   - cached: one cold batch that fills the verified result cache, then
     [reps] warm batches that must hit it — every hit's payload checked
     against the digest taken when the legality-validated result was
     inserted (the bench hard-fails if hits <> verified or anything was
     evicted, so the warm number is never bought by skipping the safety
     check).

   Results are *appended* to bench_results/BENCH_serve.json as a
   dated-by-commit trajectory, including the warm-vs-cold speedup.
   Wall-clock is machine noise, so the run is report-only by default;
   [--min-warm-speedup X] turns the speedup into a gate.

     serve [--reps N] [--domains D] [--note S] [--out F] [--no-write]
           [--min-warm-speedup X]                                        *)

module Service = Lslp_service.Service
module Pool = Lslp_service.Pool
module Stats = Lslp_telemetry.Pool_stats
module Json = Lslp_util.Json
module Catalog = Lslp_kernels.Catalog
module Config = Lslp_core.Config

let out_path = ref "bench_results/BENCH_serve.json"
let reps = ref 1000
let domains = ref 4
let note = ref ""
let with_write = ref true
let min_warm_speedup = ref None

let jobs =
  Array.of_list
    (List.map
       (fun (k : Catalog.kernel) ->
         { Service.label = k.key; source = k.source; unroll = 4 })
       Catalog.all)

let nkernels = Array.length jobs

let die fmt = Fmt.kstr (fun s -> Fmt.epr "bench-serve: %s@." s; exit 1) fmt

let service ~domains ~cache =
  let pool = { Pool.default_config with domains; queue_cap = 64 } in
  Service.create ~cache ~pool Config.lslp

(* Submit [rounds] copies of the catalog as ONE batch (catalog x reps,
   the workload the gate names) so per-batch pool setup amortizes
   across the whole run, and return ns per catalog pass.  Any typed
   failure is a bench bug: no faults are armed here. *)
let timed_pass ?(base = 0) svc rounds =
  let batch = Array.concat (List.init rounds (fun _ -> jobs)) in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (function
      | Pool.Done _ -> ()
      | Pool.Degraded_to_failure { failure; _ } ->
        die "job degraded without faults: %a" Pool.pp_failure failure)
    (Service.batch ~index_base:(base * nkernels) svc batch);
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int rounds

let report name ns =
  Fmt.pr "%-28s %12.0f ns/batch  %8.1f batches/s@." name ns (1e9 /. ns);
  ns

(* Per-job latency percentiles in virtual pool ticks, read off the
   service registry's lslp_job_latency_ticks histogram.  Ticks, unlike
   the ns/batch numbers above, are machine-independent: the same batch
   on the same domain count always lands the same distribution. *)
let latency_percentiles svc =
  match
    Lslp_obs.Registry.histogram_view (Service.registry svc)
      "lslp_job_latency_ticks"
  with
  | None -> (0, 0, 0)
  | Some h ->
    Lslp_obs.Registry.(percentile h 0.5, percentile h 0.95, percentile h 0.99)

let latency_json (p50, p95, p99) =
  Json.Obj
    [ ("p50", Json.Int p50); ("p95", Json.Int p95); ("p99", Json.Int p99) ]

let () =
  let rec parse = function
    | [] -> ()
    | "--reps" :: v :: rest ->
      reps := int_of_string v;
      parse rest
    | "--domains" :: v :: rest ->
      domains := int_of_string v;
      parse rest
    | "--note" :: v :: rest ->
      note := v;
      parse rest
    | "--out" :: v :: rest ->
      out_path := v;
      parse rest
    | "--no-write" :: rest ->
      with_write := false;
      parse rest
    | "--min-warm-speedup" :: v :: rest ->
      min_warm_speedup := Some (float_of_string v);
      parse rest
    | arg :: _ ->
      Fmt.epr
        "usage: serve [--reps N] [--domains D] [--note S] [--out F] \
         [--no-write] [--min-warm-speedup X] (got %s)@."
        arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let cores = Domain.recommended_domain_count () in
  Fmt.pr "bench-serve: catalog (%d kernels) x %d, %d domain(s), %d core(s)@."
    nkernels !reps !domains cores;
  if !domains > cores then
    Fmt.pr
      "note: more domains than cores; the pool-vs-sequential ratio will \
       reflect GC synchronization, not parallel speedup@.";
  (* sequential floor and pooled run, both compiling every batch *)
  let seq_ns = report "sequential, cache off" (timed_pass (service ~domains:1 ~cache:false) !reps) in
  let pool_svc = service ~domains:!domains ~cache:false in
  let pool_ns =
    report (Fmt.str "%d domains, cache off" !domains) (timed_pass pool_svc !reps)
  in
  (* cache: one cold batch fills it, then every job must hit *)
  let svc = service ~domains:1 ~cache:true in
  let cold_ns = report "cache cold (fill)" (timed_pass svc 1) in
  let warm_ns = report "cache warm" (timed_pass ~base:1 svc !reps) in
  let s = Service.stats svc in
  let expected_hits = !reps * nkernels in
  if s.Stats.cache_hits <> expected_hits then
    die "expected %d warm hits, saw %d" expected_hits s.Stats.cache_hits;
  if s.Stats.cache_verified <> s.Stats.cache_hits then
    die "hits served without a payload digest check: %d hits, %d verified"
      s.Stats.cache_hits s.Stats.cache_verified;
  if s.Stats.cache_evicted <> 0 then
    die "unexpected evictions in a clean run: %d" s.Stats.cache_evicted;
  let warm_speedup = seq_ns /. warm_ns in
  let pool_speedup = seq_ns /. pool_ns in
  let pool_lat = latency_percentiles pool_svc in
  let cached_lat = latency_percentiles svc in
  let pp_lat ppf (p50, p95, p99) = Fmt.pf ppf "%d/%d/%d" p50 p95 p99 in
  Fmt.pr "every warm hit digest-checked: %d/%d@." s.Stats.cache_verified
    s.Stats.cache_hits;
  Fmt.pr "job latency ticks p50/p95/p99: pooled %a, cached %a@." pp_lat
    pool_lat pp_lat cached_lat;
  Fmt.pr "warm cache vs cold compile: %.2fx;  %d domains vs 1: %.2fx@."
    warm_speedup !domains pool_speedup;
  (match !min_warm_speedup with
   | Some floor when warm_speedup < floor ->
     die "warm speedup %.2fx below the %.2fx gate" warm_speedup floor
   | _ -> ());
  if !with_write then begin
    let prior = Run_log.load_runs !out_path in
    let run =
      Json.Obj
        ([
           ("note", Json.Str !note);
           ("kernels", Json.Int nkernels);
           ("reps", Json.Int !reps);
           ("domains", Json.Int !domains);
           ("cores", Json.Int cores);
           ( "ns_per_batch",
             Json.Obj
               [
                 ("sequential_nocache", Json.Float seq_ns);
                 ("pool_nocache", Json.Float pool_ns);
                 ("cache_cold", Json.Float cold_ns);
                 ("cache_warm", Json.Float warm_ns);
               ] );
           ("warm_speedup", Json.Float warm_speedup);
           ("pool_speedup", Json.Float pool_speedup);
           ( "latency_ticks",
             Json.Obj
               [
                 ("pool", latency_json pool_lat);
                 ("cached", latency_json cached_lat);
               ] );
           ("cache_hits", Json.Int s.Stats.cache_hits);
           ("cache_verified", Json.Int s.Stats.cache_verified);
         ]
        @
        match Run_log.git_commit () with
        | Some c -> [ ("commit", Json.Str c) ]
        | None -> [])
    in
    let doc =
      Json.Obj
        [
          ("schema", Json.Str "lslp-bench-serve/1");
          ("runs", Json.Arr (prior @ [ run ]));
        ]
    in
    let oc = open_out_bin !out_path in
    output_string oc (Json.to_string doc);
    output_string oc "\n";
    close_out oc;
    Fmt.pr "bench-serve: appended run to %s@." !out_path
  end
