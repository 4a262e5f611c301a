(* The observability layer: registry arithmetic, percentile math, the
   flight-recorder ring bound, and the exporters.

   Everything in lib/obs is deterministic by construction (no clock, no
   ambient randomness), so these tests can pin exact values and assert
   byte-identical renders — the unit-level version of what
   `make metrics-check` gates end to end. *)

open Helpers
module Registry = Lslp_obs.Registry
module Flight = Lslp_obs.Flight
module Export = Lslp_obs.Export
module Json = Lslp_util.Json
module Pass_metrics = Lslp_telemetry.Pass_metrics
module Report = Lslp_telemetry.Report
module Config = Lslp_core.Config
module Pipeline = Lslp_core.Pipeline

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go k = k + m <= n && (String.sub s k m = sub || go (k + 1)) in
  m = 0 || go 0

(* ---- registry ------------------------------------------------------ *)

let registry_tests =
  [
    tc "counters add, gauges set, values read back" (fun () ->
        let r = Registry.create () in
        let c = Registry.counter r "jobs_total" in
        let g = Registry.gauge r "depth" in
        Registry.incr c;
        Registry.add c 4;
        Registry.set g 7;
        Registry.set g 3;
        check_int "counter" 5 (Registry.value c);
        match Registry.snapshot r with
        | [ _; { Registry.s_value = Registry.Gauge_v v; _ } ] ->
          check_int "gauge keeps last set" 3 v
        | _ -> Alcotest.fail "unexpected snapshot shape");
    tc "registration is idempotent per (name, labels)" (fun () ->
        let r = Registry.create () in
        let a = Registry.counter r ~labels:[ ("k", "v") ] "dup_total" in
        let b = Registry.counter r ~labels:[ ("k", "v") ] "dup_total" in
        let other = Registry.counter r ~labels:[ ("k", "w") ] "dup_total" in
        Registry.incr a;
        Registry.incr b;
        Registry.incr other;
        check_int "both handles hit one cell" 2 (Registry.value a);
        check_int "distinct labels stay distinct" 1 (Registry.value other);
        check_int "snapshot has two samples" 2
          (List.length (Registry.snapshot r)));
    tc "snapshot preserves registration order" (fun () ->
        let r = Registry.create () in
        ignore (Registry.counter r "first_total");
        ignore (Registry.gauge r "second");
        ignore (Registry.histogram r ~buckets:[| 1 |] "third");
        check
          Alcotest.(list string)
          "order"
          [ "first_total"; "second"; "third" ]
          (List.map
             (fun s -> s.Registry.s_name)
             (Registry.snapshot r)));
    tc "histogram buckets, sum, count, min, max" (fun () ->
        let r = Registry.create () in
        let h = Registry.histogram r ~buckets:[| 10; 1; 10; 100 |] "lat" in
        List.iter (Registry.observe h) [ 1; 5; 10; 11; 1000 ];
        match Registry.histogram_view r "lat" with
        | None -> Alcotest.fail "histogram not found"
        | Some v ->
          check
            Alcotest.(array int)
            "bounds sorted and deduplicated" [| 1; 10; 100 |]
            v.Registry.bounds;
          (* per-bucket: <=1, <=10, <=100, +Inf *)
          check
            Alcotest.(array int)
            "per-bucket counts" [| 1; 2; 1; 1 |] v.Registry.counts;
          check_int "sum" 1027 v.Registry.hsum;
          check_int "count" 5 v.Registry.hcount;
          check_int "min" 1 v.Registry.hmin;
          check_int "max" 1000 v.Registry.hmax);
    tc "percentiles: bucket bound, clamped to observed extremes" (fun () ->
        let r = Registry.create () in
        let h = Registry.histogram r ~buckets:[| 1; 2; 4; 8 |] "p" in
        (* 10 observations: 6x1, 3x3, 1x7 *)
        List.iter (Registry.observe h)
          [ 1; 1; 1; 1; 1; 1; 3; 3; 3; 7 ];
        let v = Option.get (Registry.histogram_view r "p") in
        check_int "p50 lands in the first bucket" 1
          (Registry.percentile v 0.5);
        check_int "p90 lands in the <=4 bucket" 4
          (Registry.percentile v 0.9);
        (* rank 10 falls in <=8, clamped to the observed max 7 *)
        check_int "p99 clamps to hmax" 7 (Registry.percentile v 0.99));
    tc "percentile of an empty histogram is 0" (fun () ->
        let r = Registry.create () in
        ignore (Registry.histogram r ~buckets:[| 1; 2 |] "empty");
        let v = Option.get (Registry.histogram_view r "empty") in
        check_int "p50" 0 (Registry.percentile v 0.5));
    tc "single-valued histogram is exact at every percentile" (fun () ->
        let r = Registry.create () in
        let h = Registry.histogram r ~buckets:[| 1; 64; 512 |] "one" in
        for _ = 1 to 20 do Registry.observe h 48 done;
        let v = Option.get (Registry.histogram_view r "one") in
        List.iter
          (fun q -> check_int (Fmt.str "p%.0f" (q *. 100.)) 48
              (Registry.percentile v q))
          [ 0.5; 0.95; 0.99; 1.0 ]);
  ]

(* ---- flight recorder ----------------------------------------------- *)

let flight_tests =
  [
    tc "ring keeps the newest cap events, seq shows the drops" (fun () ->
        let f = Flight.create ~cap:4 () in
        for i = 0 to 6 do
          Flight.record f ~tick:i ~job:(Fmt.str "j%d" i) "enqueued"
        done;
        let evs = Flight.events f in
        check_int "first surviving seq = events overwritten" 3
          (List.hd evs).Flight.seq;
        check_int "window size" 4 (List.length evs);
        check
          Alcotest.(list int)
          "oldest first, newest kept" [ 3; 4; 5; 6 ]
          (List.map (fun e -> e.Flight.seq) evs));
    tc "defaults: attempt -1, seed 0, empty detail" (fun () ->
        let f = Flight.create ~cap:8 () in
        Flight.record f ~tick:2 ~job:"k" "shed";
        match Flight.events f with
        | [ e ] ->
          check_int "attempt" (-1) e.Flight.attempt;
          check_int "seed" 0 e.Flight.seed;
          check_string "detail" "" e.Flight.detail;
          check_string "kind" "shed" e.Flight.kind
        | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
    tc "to_jsonl: one parseable object per line, fields round-trip"
      (fun () ->
        let f = Flight.create ~cap:8 () in
        Flight.record f ~tick:1 ~job:"a" ~attempt:0 ~seed:99
          ~detail:"latency=3" "completed";
        Flight.record f ~tick:4 ~job:"b \"quoted\"" "crashed";
        let lines =
          String.split_on_char '\n' (String.trim (Flight.to_jsonl f))
        in
        check_int "two lines" 2 (List.length lines);
        List.iter
          (fun line ->
            match Json.of_string line with
            | Ok (Json.Obj fields) ->
              List.iter
                (fun key ->
                  check_bool (key ^ " present") true
                    (List.mem_assoc key fields))
                [ "seq"; "tick"; "event"; "job"; "attempt"; "seed";
                  "detail" ]
            | Ok _ -> Alcotest.fail "line is not an object"
            | Error e -> Alcotest.failf "unparseable line: %s" e)
          lines);
  ]

(* ---- exporters ----------------------------------------------------- *)

(* A small fixed registry every exporter test shares. *)
let sample_registry () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"Jobs done." "lslp_done_total" in
  let g = Registry.gauge r "lslp_depth" in
  let h =
    Registry.histogram r ~help:"Latency." ~buckets:[| 1; 4; 16 |]
      ~labels:[ ("pass", "cost") ] "lslp_lat"
  in
  Registry.add c 3;
  Registry.set g 2;
  List.iter (Registry.observe h) [ 1; 2; 5; 40 ];
  r

let export_tests =
  [
    tc "prometheus text: cumulative buckets, sum and count per series"
      (fun () ->
        let text = Export.prometheus (Registry.snapshot (sample_registry ())) in
        List.iter
          (fun line -> check_bool line true (contains text (line ^ "\n")))
          [
            "lslp_done_total 3"; "lslp_depth 2";
            "lslp_lat_bucket{pass=\"cost\",le=\"1\"} 1";
            "lslp_lat_bucket{pass=\"cost\",le=\"4\"} 2";
            "lslp_lat_bucket{pass=\"cost\",le=\"16\"} 3";
            "lslp_lat_bucket{pass=\"cost\",le=\"+Inf\"} 4";
            "lslp_lat_sum{pass=\"cost\"} 48";
            "lslp_lat_count{pass=\"cost\"} 4";
          ]);
    tc "prometheus text carries HELP and TYPE per family" (fun () ->
        let text = Export.prometheus (Registry.snapshot (sample_registry ())) in
        List.iter
          (fun line -> check_bool line true (contains text line))
          [
            "# HELP lslp_done_total Jobs done.";
            "# TYPE lslp_done_total counter";
            "# TYPE lslp_depth gauge";
            "# TYPE lslp_lat histogram";
          ]);
    tc "renders are deterministic" (fun () ->
        (* two registries built independently: equal bumps render
           equal bytes *)
        let a = Registry.snapshot (sample_registry ())
        and b = Registry.snapshot (sample_registry ()) in
        check_string "prometheus" (Export.prometheus a) (Export.prometheus b);
        check_string "table"
          (Fmt.str "%a" Export.pp_table a)
          (Fmt.str "%a" Export.pp_table b));
  ]

(* ---- pipeline pass metrics ----------------------------------------- *)

let run_observed kernel_key =
  let registry = Registry.create () in
  let pm = Pass_metrics.create registry in
  let f = Lslp_kernels.Catalog.compile_key kernel_key in
  ignore (Lslp_frontend.Unroll.run ~factor:4 f);
  let report = Pipeline.run ~metrics:pm ~config:Config.lslp f in
  (registry, report)

let pass_metrics_tests =
  [
    tc "observe mirrors the report's counters into the registry" (fun () ->
        let registry, report = run_observed "453.vsumsqr" in
        let total = Report.total_counters report.Pipeline.telemetry in
        List.iter
          (fun (name, proj) ->
            let metric = Fmt.str "lslp_pipeline_%s_total" name in
            match
              List.find_opt
                (fun s -> s.Registry.s_name = metric)
                (Registry.snapshot registry)
            with
            | Some { Registry.s_value = Registry.Counter_v v; _ } ->
              check_int metric (proj total) v
            | _ -> Alcotest.failf "metric %s missing" metric)
          Lslp_telemetry.Probe.counter_fields);
    tc "one run observes one job-steps sample, every known pass present"
      (fun () ->
        let registry, _ = run_observed "453.vsumsqr" in
        (match Registry.histogram_view registry "lslp_job_pass_steps" with
         | Some v -> check_int "job histogram count" 1 v.Registry.hcount
         | None -> Alcotest.fail "job steps histogram missing");
        List.iter
          (fun pass ->
            check_bool (pass ^ " pre-registered") true
              (Registry.histogram_view registry
                 ~labels:[ ("pass", pass) ] "lslp_pass_steps"
               <> None))
          Pass_metrics.known_passes);
    tc "an unknown pass gets one series, after the known passes" (fun () ->
        let registry = Registry.create () in
        let pm = Pass_metrics.create registry in
        let snap =
          { Lslp_telemetry.Probe.s_counters =
              Lslp_telemetry.Probe.zero_counters ();
            s_steps = [ ("x", 3) ] }
        in
        let report = Report.make ~func:"f" ~config:"LSLP" [ ("entry", snap) ] in
        Pass_metrics.observe pm report;
        Pass_metrics.observe pm report;
        let passes =
          List.filter_map
            (fun (s : Registry.sample) ->
              if s.s_name = "lslp_pass_steps" then
                List.assoc_opt "pass" s.s_labels
              else None)
            (Registry.snapshot registry)
        in
        check
          Alcotest.(list string)
          "known passes, then x once" (Pass_metrics.known_passes @ [ "x" ])
          passes;
        match
          Registry.histogram_view registry ~labels:[ ("pass", "x") ]
            "lslp_pass_steps"
        with
        | Some v ->
          check_int "observed twice" 2 v.Registry.hcount;
          check_int "3 steps each" 6 v.Registry.hsum
        | None -> Alcotest.fail "pass x not registered");
    tc "the series set does not grow with the functions compiled"
      (fun () ->
        let registry = Registry.create () in
        let pm = Pass_metrics.create registry in
        let series () = List.length (Registry.snapshot registry) in
        let sizes =
          List.map
            (fun (k : Lslp_kernels.Catalog.kernel) ->
              let f = Lslp_kernels.Catalog.compile k in
              let report = Pipeline.run ~metrics:pm ~config:Config.lslp f in
              (report.Pipeline.telemetry.Report.func, series ()))
            Lslp_kernels.Catalog.all
        in
        check_int "28 distinct function names" 28
          (List.length (List.sort_uniq compare (List.map fst sizes)));
        let first = snd (List.hd sizes) in
        List.iter
          (fun (func, n) -> check_int (func ^ ": series count") first n)
          sizes);
    tc "observing the same kernel twice yields identical exposition"
      (fun () ->
        let dump key =
          let registry, _ = run_observed key in
          Export.prometheus (Registry.snapshot registry)
        in
        check_string "byte-identical dumps" (dump "453.vsumsqr")
          (dump "453.vsumsqr"));
  ]

let suite =
  registry_tests @ flight_tests @ export_tests @ pass_metrics_tests
