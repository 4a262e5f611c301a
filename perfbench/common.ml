(* What every workload shares: the compile configuration, the correctness
   gate, run bookkeeping, statistics and the per-layer metric tables. *)

open Lslp_ir
module Config = Lslp_core.Config
module Pipeline = Lslp_core.Pipeline
module Oracle = Lslp_interp.Oracle
module Diagnostic = Lslp_check.Diagnostic
module Probe = Lslp_telemetry.Probe
module Telemetry = Lslp_telemetry.Report

let config = Config.lslp
let domains = 2
let setup_reps = 9

(* A correctness failure: the run reports no numbers. *)
exception Failed of string

let fail fmt = Fmt.kstr (fun s -> raise (Failed s)) fmt

(* ---- statistics ------------------------------------------------------- *)

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let r = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (r - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  percentile a 0.5

let geomean l =
  exp
    (List.fold_left (fun acc x -> acc +. log x) 0. l
    /. float_of_int (List.length l))

let ratio a b = if b = 0. then 0. else a /. b
let secs ns = float_of_int ns /. 1e9

(* Latencies in ns, kept outside the OCaml heap so the benchmark's own
   bookkeeping never shows in [peak_heap_mb].  Every [cal_every_ns] of
   measured work a calibration slice runs ([Calib]); windows of at least
   [window_s] close at round boundaries, and timing metrics are medians
   over windows of calibrated values, so a burst of interference from
   outside the process moves a few windows, not the result. *)
module A1 = Bigarray.Array1

let window_s = 0.5
let cal_every_ns = 4_000_000
let cal_units = 8

type cut = { at : int; units : int; cal_ns : int }  (* cumulative *)

type samples = {
  cal_domains : int;  (* domains the workload runs on *)
  mutable data : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
  mutable len : int;
  mutable since_cal : int;
  mutable units : int;
  mutable cal_ns : int;
  mutable cuts : cut list;  (* newest first *)
  mutable window_t0 : int;
  mutable heap_words : float list;  (* major heap size samples *)
}

let samples ?(domains = 1) () =
  {
    cal_domains = domains;
    data = A1.create Bigarray.int Bigarray.c_layout 65536;
    len = 0;
    since_cal = 0;
    units = 0;
    cal_ns = 0;
    cuts = [];
    window_t0 = 0;
    heap_words = [];
  }

let push s v =
  if s.len = A1.dim s.data then begin
    let d = A1.create Bigarray.int Bigarray.c_layout (2 * s.len) in
    A1.blit s.data (A1.sub d 0 s.len);
    s.data <- d
  end;
  A1.unsafe_set s.data s.len v;
  s.len <- s.len + 1;
  s.since_cal <- s.since_cal + v;
  if s.since_cal >= cal_every_ns then begin
    s.cal_ns <- s.cal_ns + Calib.slice ~domains:s.cal_domains cal_units;
    s.units <- s.units + cal_units;
    s.since_cal <- 0
  end

(* Close the current window if it has run for [window_s]. *)
let round_done s =
  let now = Span.now_ns () in
  if now - s.window_t0 >= int_of_float (window_s *. 1e9) then begin
    s.cuts <- { at = s.len; units = s.units; cal_ns = s.cal_ns } :: s.cuts;
    s.window_t0 <- now
  end

let sample_heap s =
  s.heap_words <- float_of_int (Gc.quick_stat ()).Gc.heap_words :: s.heap_words

(* The major heap's high-water mark, as the 90th percentile of its size
   sampled after every round (and every batch): [top_heap_words] itself
   records one-off spikes of two domains' collections racing and moves by
   a quarter between identical runs. *)
let peak_heap_mb s =
  let a = Array.of_list s.heap_words in
  Array.sort compare a;
  percentile a 0.9 *. float_of_int (Sys.word_size / 8) /. 1048576.

let sum_range s lo hi =
  let acc = ref 0 in
  for i = lo to hi - 1 do
    acc := !acc + A1.unsafe_get s.data i
  done;
  !acc

let total s = sum_range s 0 s.len

(* Complete windows as ([lo, hi) sample range, calibration factor); the
   whole run when it was shorter than one window. *)
let windows s =
  let rec go (prev : cut) = function
    | [] -> []
    | (c : cut) :: rest ->
      ( prev.at,
        c.at,
        Calib.factor ~domains:s.cal_domains ~units:(c.units - prev.units)
          ~ns:(c.cal_ns - prev.cal_ns) () )
      :: go c rest
  in
  match List.rev s.cuts with
  | [] ->
    [ (0, s.len, Calib.factor ~domains:s.cal_domains ~units:s.units ~ns:s.cal_ns ()) ]
  | cuts -> go { at = 0; units = 0; cal_ns = 0 } cuts

(* Median over windows of calibrated units of work per second of summed
   latency. *)
let per_second s ~per =
  median
    (List.map
       (fun (lo, hi, k) ->
         ratio (float_of_int ((hi - lo) * per)) (secs (sum_range s lo hi)) /. k)
       (windows s))

let raw_per_second s ~per = ratio (float_of_int (s.len * per)) (secs (total s))

let latency_metrics s =
  let pct q =
    median
      (List.map
         (fun (lo, hi, k) ->
           let us =
             Array.init (hi - lo) (fun i ->
                 float_of_int (A1.unsafe_get s.data (lo + i)) /. 1000.)
           in
           Array.sort compare us;
           percentile us q *. k)
         (windows s))
  in
  [ ("latency_us_p50", pct 0.5, "us"); ("latency_us_p90", pct 0.9, "us") ]

let sample_note s ~per =
  let ks = List.map (fun (_, _, k) -> k) (windows s) in
  Printf.sprintf
    "%d samples in %d windows of >= %.1f s; uncalibrated %.1f/s; host speed \
     %.3f of nominal (median window)"
    s.len (List.length ks) window_s (raw_per_second s ~per) (median ks)

(* ---- run bookkeeping --------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

(* Count one checked compile or job. *)
let check ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then tally.failed <- tally.failed + 1

(* Median calibrated wall time of [setup_reps] runs of [f], each from a
   collected heap and between two calibration slices; the last result is
   kept. *)
let setup_cal_units = 100

let timed_setup f =
  let rec go k times last =
    match last with
    | Some v when k = 0 -> (median times, v)
    | _ ->
      Gc.full_major ();
      let before = Calib.slice setup_cal_units in
      let t0 = Span.now_ns () in
      let v = f () in
      let dt = secs (Span.now_ns () - t0) in
      let ns = before + Calib.slice setup_cal_units in
      let factor = Calib.factor ~units:(2 * setup_cal_units) ~ns () in
      go (k - 1) ((dt *. factor) :: times) (Some v)
  in
  go setup_reps [] None

(* Rounds of [round] until [seconds] have passed; a round is never cut, so
   every round-robin mix of inputs is measured whole, and windows of
   [samples] close only between rounds. *)
let for_rounds seconds samples round =
  let stop = Span.now_ns () + int_of_float (seconds *. 1e9) in
  let r = ref 0 in
  samples.window_t0 <- Span.now_ns ();
  while Span.now_ns () < stop do
    round !r;
    round_done samples;
    sample_heap samples;
    incr r
  done

(* ---- the correctness gate ------------------------------------------------ *)

let normalized f = Lslp_util.Normalize.ids (Fmt.str "%a" Printer.pp_func f)

let counters_of (t : Telemetry.t) =
  let c = Telemetry.total_counters t in
  List.map (fun (name, get) -> (name, get c)) Probe.counter_fields

let frontend source =
  let f = Lslp_frontend.Lower.compile_string source in
  ignore (Lslp_frontend.Unroll.run ~factor:Inputs.unroll f);
  f

(* What the gate learns about one distinct program. *)
type expect = {
  ir : string;  (* normalized compiled IR *)
  instrs : int;
  vectorized : int;
  counters : (string * int) list;
  speedup : float;  (* scalar / vector simulated cycles *)
  totals : Probe.counters;
}

(* Compile [input] (left untouched) sequentially with [Pipeline.run],
   with and without the legality validator, and judge the result with the
   scalar oracle against [reference], the program before region formation
   — so unrolling is inside the check too.  Nothing here is timed. *)
let check_program name ~reference input =
  let compiled = Func.clone input in
  let report = Pipeline.run ~config compiled in
  if report.Pipeline.degraded_regions > 0 then
    fail "%s: %d degraded region(s)" name report.Pipeline.degraded_regions;
  let validated = Func.clone input in
  let vreport =
    Pipeline.run ~config:(Config.with_validate true config) validated
  in
  if vreport.Pipeline.diagnostics <> [] then
    fail "%s: legality: %s" name
      (Diagnostic.summary vreport.Pipeline.diagnostics);
  let ir = normalized compiled in
  if normalized validated <> ir then
    fail "%s: validated compile differs from the plain one" name;
  let o = Oracle.compare_runs ~reference ~candidate:compiled () in
  if o.Oracle.mismatches <> [] then
    fail "%s: oracle: %d memory mismatch(es)" name
      (List.length o.Oracle.mismatches);
  {
    ir;
    instrs = Func.num_instrs compiled;
    vectorized = report.Pipeline.vectorized_regions;
    counters = counters_of report.Pipeline.telemetry;
    speedup =
      float_of_int o.Oracle.reference_cycles
      /. float_of_int o.Oracle.candidate_cycles;
    totals = Telemetry.total_counters report.Pipeline.telemetry;
  }

(* The deterministic end-to-end metrics over the distinct programs. *)
let quality_metrics (expects : expect list) =
  [
    ( "sim_speedup_geomean",
      geomean (List.map (fun e -> e.speedup) expects),
      "x" );
    ( "code_instrs",
      float_of_int (List.fold_left (fun acc e -> acc + e.instrs) 0 expects),
      "count" );
  ]

(* ---- per-layer metrics --------------------------------------------------- *)

(* Work counts over the distinct programs, read from [Pipeline.run]'s
   reports. *)
let core_counts (expects : expect list) =
  let c = Probe.zero_counters () in
  List.iter (fun e -> Probe.add_counters ~into:c e.totals) expects;
  let f = float_of_int in
  [
    ("core.score_evals", f c.Probe.score_evals, "count");
    ("core.graph_nodes", f c.Probe.graph_nodes, "count");
    ("core.seeds_tried", f c.Probe.seeds_tried, "count");
    ( "core.vectorized_ratio",
      ratio (f c.Probe.regions_vectorized) (f c.Probe.seeds_tried),
      "ratio" );
    ( "core.score_cache_hit_ratio",
      ratio (f c.Probe.score_hits)
        (f (c.Probe.score_hits + c.Probe.score_misses)),
      "ratio" );
  ]

(* Self time per request of every layer span; [core.pipeline_us] is the
   inclusive pipeline time and [core.driver_us] its self time — the part
   no stage span covers. *)
let time_metrics (s : Span.summary) =
  let self name id = (name, Span.self_us s id, "us") in
  [
    self "frontend.parse_us" Span.parse;
    self "frontend.lower_us" Span.lower;
    self "frontend.unroll_us" Span.unroll;
    self "ir.arena_us" Span.arena;
    self "core.seeds_us" Span.seeds;
    self "analysis.depgraph_us" Span.depgraph;
    self "core.graph_build_us" Span.graph_build;
    self "core.cost_us" Span.cost;
    self "core.codegen_us" Span.codegen;
    self "ir.verify_us" Span.verify;
    self "core.reduction_us" Span.reduction;
    self "ir.cse_us" Span.cse;
    self "ir.dce_us" Span.dce;
    ("core.pipeline_us", Span.incl_us s Span.pipeline, "us");
    self "core.driver_us" Span.pipeline;
    self "ir.print_us" Span.print;
    self "util.normalize_us" Span.normalize;
    self "check.snapshot_us" Span.snapshot;
    self "cache.insert_us" Span.insert;
    self "cache.lookup_us" Span.lookup;
  ]

(* The frontend's and the vectorizer's shares of a request's time, apart —
   the split the LSLP-over-O3 compile-time ratio hides. *)
let share_metrics (s : Span.summary) ~root =
  let whole = Span.incl_us s root in
  let fe =
    Span.self_us s Span.parse +. Span.self_us s Span.lower
    +. Span.self_us s Span.unroll
  in
  [
    ("frontend.share", ratio fe whole, "ratio");
    ("core.share", ratio (Span.incl_us s Span.pipeline) whole, "ratio");
  ]

let overhead_metrics ~untraced ~traced (s : Span.summary) =
  [
    ("trace.overhead_ratio", ratio untraced traced, "ratio");
    ("trace.spans", float_of_int (s.Span.kept + s.Span.dropped), "count");
  ]

let cores () = float_of_int (Domain.recommended_domain_count ())

(* What a traced run hands back besides its own metrics: the summary of
   the traced timed loop, written out as the Chrome trace. *)
let out_dir = Filename.concat "perfbench" "out"

let write_trace workload s =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir (workload ^ ".trace.json") in
  Span.write_chrome s path;
  Fmt.pr "chrome trace: %s (%d spans kept, %d dropped)@." path s.Span.kept
    s.Span.dropped
