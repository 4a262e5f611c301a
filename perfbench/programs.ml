(* The [catalog] and [chains] workloads: one domain compiles a fixed set of
   distinct programs round after round, each round in a seeded order.

   [catalog] compiles the catalog's kernel sources through the frontend
   (parse + lower + unroll) and the LSLP pipeline, all of it timed.
   [chains] compiles straight-line IR built during set-up; each input is
   cloned before the clock starts, so only the pipeline is timed. *)

open Lslp_ir
open Common

type input = Source of string | Built of Func.t
type prog = { name : string; input : input }
type kind = Catalog | Chains

let name = function Catalog -> "catalog" | Chains -> "chains"

(* The program as written (loops intact, the oracle's reference) and as
   the pipeline receives it. *)
let reference_of p =
  match p.input with
  | Source s -> Lslp_frontend.Lower.compile_string s
  | Built f -> f

let input_of p = match p.input with Source s -> frontend s | Built f -> f

(* Warm-up passes over the inputs during set-up, so lazy initialisation
   and heap growth are done before anything is timed. *)
let warmup_passes = function Catalog -> 4 | Chains -> 1

(* One untraced compile: (ns, compiled function, vectorized, degraded). *)
let timed_compile p =
  let finish t0 f (r : Pipeline.report) =
    ( Span.now_ns () - t0,
      f,
      r.Pipeline.vectorized_regions,
      r.Pipeline.degraded_regions )
  in
  match p.input with
  | Source s ->
    let t0 = Span.now_ns () in
    let f = frontend s in
    finish t0 f (Pipeline.run ~config f)
  | Built tmpl ->
    let f = Func.clone tmpl in
    let t0 = Span.now_ns () in
    finish t0 f (Pipeline.run ~config f)

(* The same compile replayed with spans, as one request of [s]. *)
let traced_compile s p =
  let input =
    match p.input with
    | Source src -> fun ctx -> Replay.frontend ctx ~unroll:Inputs.unroll src
    | Built tmpl ->
      let f = Func.clone tmpl in
      fun _ -> f
  in
  let t0 = Span.now_ns () in
  let f, (r : Replay.result) =
    Span.request s ~root:Span.compile (fun ctx ->
        let f = input ctx in
        (f, Replay.pipeline ctx ~config f))
  in
  (Span.now_ns () - t0, f, r)

let setup kind ~seed =
  let progs =
    match kind with
    | Catalog ->
      Array.map
        (fun (key, src) -> { name = key; input = Source src })
        (Inputs.catalog ())
    | Chains ->
      Array.map
        (fun (desc, f) -> { name = desc; input = Built f })
        (Inputs.chains ~seed)
  in
  for _ = 1 to warmup_passes kind do
    Array.iter (fun p -> ignore (timed_compile p)) progs
  done;
  progs

(* One replay pass over every program, in order. *)
let replay_pass s progs ~on_result =
  Array.iteri
    (fun i p ->
      let _, f, r = traced_compile s p in
      on_result i p f r)
    progs

(* Allocation-probe mode: the set-up, then one traced pass. *)
let probe kind ~seed =
  let progs = setup kind ~seed in
  let s = Span.summary ~keep:0 () in
  let counters = ref [] in
  replay_pass s progs ~on_result:(fun _ _ _ r ->
      counters := counters_of r.Replay.telemetry :: !counters);
  (s, List.rev !counters)

let run kind ~seed ~seconds ~trace =
  let setup_s, progs = timed_setup (fun () -> setup kind ~seed) in
  let expects =
    Array.map
      (fun p -> check_program p.name ~reference:(reference_of p) (input_of p))
      progs
  in
  let n = Array.length progs in
  (* rounds visit every program once, in a seeded order *)
  let loop seconds compile =
    let lat = samples () in
    for_rounds seconds lat (fun round ->
        Array.iter
          (fun i ->
            let dt, f, vectorized, degraded = compile progs.(i) in
            let e = expects.(i) in
            push lat dt;
            check
              (Func.num_instrs f = e.instrs
              && vectorized = e.vectorized && degraded = 0))
          (Inputs.order ~seed ~round n));
    lat
  in
  if not trace then begin
    let lat = loop seconds timed_compile in
    ( [ ("throughput_per_s", per_second lat ~per:1, "1/s") ]
      @ latency_metrics lat
      @ quality_metrics (Array.to_list expects)
      @ [ ("peak_heap_mb", peak_heap_mb lat, "MB"); ("setup_s", setup_s, "s") ],
      Printf.sprintf "compiles of %d distinct programs, %s" n (sample_note lat ~per:1) )
  end
  else begin
    (* fidelity: the replay reproduces [Pipeline.run] byte for byte *)
    replay_pass (Span.summary ~keep:0 ()) progs ~on_result:(fun i p f r ->
        let e = expects.(i) in
        if
          normalized f <> e.ir
          || counters_of r.Replay.telemetry <> e.counters
          || r.Replay.vectorized <> e.vectorized
          || r.Replay.degraded <> 0
        then fail "%s: traced replay diverges from Pipeline.run" p.name);
    let untraced = per_second (loop (seconds /. 2.) timed_compile) ~per:1 in
    let s = Span.summary () in
    let traced =
      per_second ~per:1
        (loop (seconds /. 2.) (fun p ->
             let dt, f, r = traced_compile s p in
             (dt, f, r.Replay.vectorized, r.Replay.degraded)))
    in
    write_trace (name kind) s;
    ( time_metrics s
      @ core_counts (Array.to_list expects)
      @ share_metrics s ~root:Span.compile
      @ [
          ("cache.hit_ratio", 0., "ratio");
          ("pool.parallel_efficiency", 0., "ratio");
          ("pool.latency_ticks_p50", 0., "ticks");
          ("pool.latency_ticks_p95", 0., "ticks");
          ("pool.retries", 0., "count");
          ("pool.cores", cores (), "count");
          ("service.job_us", 0., "us");
        ]
      @ overhead_metrics ~untraced ~traced s,
      Printf.sprintf "%d traced compiles of %d distinct programs"
        s.Span.requests n )
  end
