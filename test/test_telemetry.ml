(* Telemetry and the memoized look-ahead scorer.

   The load-bearing property is differential: for any program and any
   configuration, running the pipeline with [Config.score_cache] on and
   off produces identical IR (modulo instruction-id renaming), identical
   remarks and identical region outcomes — the cache is an observable
   no-op.  On top of that, the catalog run asserts the cache actually
   pays: at the default look-ahead depth it must at least halve the
   number of score evaluations, measured by the counters themselves. *)

open Lslp_ir
open Lslp_core
open Helpers
module Probe = Lslp_telemetry.Probe
module Trace = Lslp_trace.Trace
module Report = Lslp_telemetry.Report
module Score_cache = Lslp_telemetry.Score_cache
module Budget = Lslp_robust.Budget
module Catalog = Lslp_kernels.Catalog
module Fuzz = Lslp_fuzz.Fuzz
module Gen = Lslp_fuzz.Gen

let unroll_factor = 4

(* Region formation + pipeline on a clone, like the lslpc driver; returns
   the report and the printed IR.  Every clone of [reference] numbers its
   instructions alike, so the raw text of two runs compares directly. *)
let run_with ~cache ?(config = Config.lslp) reference =
  let candidate = Func.clone reference in
  ignore (Lslp_frontend.Unroll.run ~factor:unroll_factor candidate);
  let report =
    Pipeline.run ~config:(Config.with_score_cache cache config) candidate
  in
  (report, Printer.func_to_string candidate)

let total (report : Pipeline.report) =
  Report.total_counters report.Pipeline.telemetry

let remark_strings (report : Pipeline.report) =
  List.map (Fmt.str "%a" Lslp_check.Remark.pp) report.Pipeline.remarks

let vectorized_ids (report : Pipeline.report) =
  List.sort_uniq String.compare
    (List.filter_map
       (fun r ->
         if r.Lslp_check.Remark.outcome = Lslp_check.Remark.Vectorized then
           Some r.Lslp_check.Remark.block
         else None)
       report.Pipeline.regions)

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go k = k + m <= n && (String.sub s k m = sub || go (k + 1)) in
  m = 0 || go 0

let config_pool =
  [| Config.slp_nr; Config.slp; Config.lslp; Config.lslp_la 0;
     Config.lslp_la 2; Config.lslp_multi 1; Config.lslp_multi 2 |]

(* ---- probe counters and timers ------------------------------------ *)

let probe_tests =
  [
    tc "fresh counters are zero under every projection" (fun () ->
        let c = Probe.zero_counters () in
        check_int "field count" 9 (List.length Probe.counter_fields);
        List.iter
          (fun (label, proj) -> check_int label 0 (proj c))
          Probe.counter_fields);
    tc "add_counters sums pointwise" (fun () ->
        let a = Probe.zero_counters () and b = Probe.zero_counters () in
        a.Probe.score_evals <- 3;
        a.Probe.regions_vectorized <- 1;
        b.Probe.score_evals <- 4;
        b.Probe.score_hits <- 2;
        Probe.add_counters ~into:a b;
        check_int "evals" 7 a.Probe.score_evals;
        check_int "hits" 2 a.Probe.score_hits;
        check_int "vectorized" 1 a.Probe.regions_vectorized;
        (* the source operand is left alone *)
        check_int "source evals" 4 b.Probe.score_evals);
    tc "span charges time and a call even when the thunk raises" (fun () ->
        let p = Probe.create () in
        (try Probe.span p "doomed" (fun () -> raise Exit)
         with Exit -> ());
        ignore (Probe.span p "doomed" (fun () -> 42));
        match (Probe.snapshot p).Probe.s_timers with
        | [ ("doomed", secs, calls) ] ->
          check_int "calls" 2 calls;
          check_bool "non-negative time" true (secs >= 0.0)
        | other ->
          Alcotest.failf "unexpected timer rows: %d" (List.length other));
    tc "traced span nests, re-raises and charges time" (fun () ->
        let tr = Trace.create () in
        let p = Probe.create ~sink:tr ~label:"b0" () in
        (match
           Probe.span p "outer" (fun () ->
               Probe.span p "doomed" (fun () -> raise Exit))
         with
         | () -> Alcotest.fail "the thunk's exception was swallowed"
         | exception Exit -> ());
        check_bool "well-nested pair per span" true
          (List.map (fun (e : Trace.event) -> e.payload) (Trace.events tr)
          = Trace.
              [ Span_begin { pass = "outer" }; Span_begin { pass = "doomed" };
                Span_end { pass = "doomed" }; Span_end { pass = "outer" } ]);
        check
          Alcotest.(list int)
          "timer calls" [ 1; 1 ]
          (List.map (fun (_, _, calls) -> calls)
             (Probe.snapshot p).Probe.s_timers));
    tc "traced probe stamps events with its block label" (fun () ->
        let tr = Trace.create () in
        let a = Probe.create ~sink:tr ~label:"entry" () in
        let b = Probe.create ~sink:tr ~label:"loop0" () in
        Probe.record a (Trace.Seed_tried { seed = "s"; lanes = 4 });
        ignore (Probe.span b "cse" (fun () -> ()));
        Probe.record a (Trace.Seed_tried { seed = "s"; lanes = 2 });
        check
          Alcotest.(list (pair int string))
          "(ts, region)"
          [ (0, "entry"); (1, "loop0"); (2, "loop0"); (3, "entry") ]
          (List.map (fun (e : Trace.event) -> (e.ts, e.region))
             (Trace.events tr)));
    tc "untraced probe records nothing" (fun () ->
        let tr = Trace.create () in
        let traced = Probe.create ~sink:tr ~label:"entry" () in
        let p = Probe.create ~label:"entry" () in
        check_bool "tracing" false (Probe.tracing p);
        Probe.record p (Trace.Seed_tried { seed = "s"; lanes = 4 });
        (try Probe.span p "doomed" (fun () -> raise Exit) with Exit -> ());
        Probe.record traced (Trace.Seed_tried { seed = "s"; lanes = 2 });
        check_int "only the traced probe's event" 1
          (List.length (Trace.events tr));
        check_int "timer still charged" 1
          (List.length (Probe.snapshot p).Probe.s_timers));
    tc "merge sums snapshots and keeps first-seen timer order" (fun () ->
        let mk pass evals =
          let p = Probe.create () in
          (Probe.counters p).Probe.score_evals <- evals;
          ignore (Probe.span p pass (fun () -> ()));
          Probe.snapshot p
        in
        let m = Probe.merge [ mk "alpha" 2; mk "beta" 3; mk "alpha" 5 ] in
        check_int "evals" 10 m.Probe.s_counters.Probe.score_evals;
        check
          Alcotest.(list string)
          "timer order" [ "alpha"; "beta" ]
          (List.map (fun (name, _, _) -> name) m.Probe.s_timers);
        match m.Probe.s_timers with
        | [ (_, _, alpha_calls); (_, _, beta_calls) ] ->
          check_int "alpha calls" 2 alpha_calls;
          check_int "beta calls" 1 beta_calls
        | _ -> Alcotest.fail "expected two timer rows");
  ]

(* ---- the score cache ----------------------------------------------- *)

let cache_tests =
  [
    tc "store/find round-trips, misses stay misses" (fun () ->
        let c = Score_cache.create () in
        check_bool "initial miss" true
          (Score_cache.find c ~a:1 ~b:2 ~level:3 ~mode:0 = Score_cache.absent);
        Score_cache.store c ~a:1 ~b:2 ~level:3 ~mode:0 7;
        check_bool "hit" true
          (Score_cache.find c ~a:1 ~b:2 ~level:3 ~mode:0 = 7);
        check_int "size" 1 (Score_cache.size c));
    tc "every key component discriminates" (fun () ->
        let c = Score_cache.create () in
        Score_cache.store c ~a:1 ~b:2 ~level:3 ~mode:0 7;
        List.iter
          (fun (a, b, level, mode) ->
            check_bool "distinct key misses" true
              (Score_cache.find c ~a ~b ~level ~mode = Score_cache.absent))
          [ (2, 1, 3, 0); (1, 2, 2, 0); (1, 2, 3, 1); (9, 2, 3, 0) ]);
    tc "keys are instruction ids up to 2^25, larger ids bypass" (fun () ->
        let c = Score_cache.create () in
        let top = (1 lsl 25) - 1 in
        Score_cache.store c ~a:top ~b:top ~level:0xff ~mode:0xf 9;
        check_int "widest key round-trips" 9
          (Score_cache.find c ~a:top ~b:top ~level:0xff ~mode:0xf);
        List.iter
          (fun (a, b) ->
            check_bool "neighbouring key misses" true
              (Score_cache.find c ~a ~b ~level:0xff ~mode:0xf
               = Score_cache.absent))
          [ (top - 1, top); (top, top - 1); (0, 0) ];
        Score_cache.store c ~a:(top + 1) ~b:1 ~level:1 ~mode:0 5;
        Score_cache.store c ~a:1 ~b:(top + 1) ~level:1 ~mode:0 5;
        check_int "oversized ids are not stored" 1 (Score_cache.size c);
        check_bool "and never hit" true
          (Score_cache.find c ~a:(top + 1) ~b:1 ~level:1 ~mode:0
           = Score_cache.absent);
        Score_cache.clear c;
        check_bool "miss after clear" true
          (Score_cache.find c ~a:top ~b:top ~level:0xff ~mode:0xf
           = Score_cache.absent));
    tc "clear after growth drops every entry, clear when empty keeps none"
      (fun () ->
        let c = Score_cache.create () in
        Score_cache.clear c;
        for a = 1 to 200 do
          Score_cache.store c ~a ~b:(a + 1) ~level:1 ~mode:0 a
        done;
        check_int "grown" 200 (Score_cache.size c);
        Score_cache.clear c;
        check_int "size after clear" 0 (Score_cache.size c);
        for a = 1 to 200 do
          if Score_cache.find c ~a ~b:(a + 1) ~level:1 ~mode:0
             <> Score_cache.absent
          then Alcotest.failf "entry %d survived the clear" a
        done;
        Score_cache.clear c;
        Score_cache.store c ~a:7 ~b:8 ~level:1 ~mode:0 3;
        check_int "stores after two clears" 3
          (Score_cache.find c ~a:7 ~b:8 ~level:1 ~mode:0);
        check_int "one entry" 1 (Score_cache.size c));
    tc "a cleared entry never answers, even from its own slot" (fun () ->
        (* two keys whose packed forms share a home slot in every table of
           up to 1024 slots, found through the documented key layout *)
        let packed a = (a lsl 37) lor (1 lsl 12) lor (1 lsl 4) in
        let home a = Lslp_util.Int_table.slot_of ~mask:1023 (packed a) in
        let rec partner a b =
          if b > 100_000 then Alcotest.fail "no colliding key found"
          else if home b = home a then b
          else partner a (b + 1)
        in
        let b = partner 1 2 in
        let c = Score_cache.create () in
        Score_cache.store c ~a:1 ~b:1 ~level:1 ~mode:0 5;
        Score_cache.clear c;
        check_bool "stale key misses before the reuse" true
          (Score_cache.find c ~a:1 ~b:1 ~level:1 ~mode:0 = Score_cache.absent);
        Score_cache.store c ~a:b ~b:1 ~level:1 ~mode:0 6;
        check_int "new key hits" 6
          (Score_cache.find c ~a:b ~b:1 ~level:1 ~mode:0);
        check_bool "old key reads absent" true
          (Score_cache.find c ~a:1 ~b:1 ~level:1 ~mode:0 = Score_cache.absent);
        check_int "one entry" 1 (Score_cache.size c));
    tc "generations: 300 clears of a grown table keep only the last round"
      (fun () ->
        let c = Score_cache.create () in
        for round = 1 to 300 do
          Score_cache.clear c;
          for a = 1 to 50 do
            Score_cache.store c ~a:(a + round) ~b:a ~level:2 ~mode:1 round
          done;
          check_int "size" 50 (Score_cache.size c)
        done;
        for a = 1 to 50 do
          check_int "last round's entry" 300
            (Score_cache.find c ~a:(a + 300) ~b:a ~level:2 ~mode:1);
          check_bool "an older round's entry is gone" true
            (Score_cache.find c ~a:(a + 299) ~b:a ~level:2 ~mode:1
             = Score_cache.absent)
        done);
    tc "a clear after outgrowing the kept storage drops every entry"
      (fun () ->
        let c = Score_cache.create () in
        for round = 1 to 3 do
          for a = 1 to 1500 do
            Score_cache.store c ~a ~b:round ~level:1 ~mode:0 (a + round)
          done;
          check_int "grown" 1500 (Score_cache.size c);
          check_int "last entry" (1500 + round)
            (Score_cache.find c ~a:1500 ~b:round ~level:1 ~mode:0);
          Score_cache.clear c;
          check_int "size after clear" 0 (Score_cache.size c);
          for a = 1 to 1500 do
            if Score_cache.find c ~a ~b:round ~level:1 ~mode:0
               <> Score_cache.absent
            then Alcotest.failf "round %d: entry %d survived" round a
          done
        done);
    tc "slot_of spreads keys that differ only in their top field" (fun () ->
        (* 200 packed-key shapes differing above bit 37 only: the slot
           function must see those bits, not just the low ones *)
        let seen = Hashtbl.create 256 in
        for k = 1 to 200 do
          Hashtbl.replace seen
            (Lslp_util.Int_table.slot_of ~mask:511 ((k lsl 38) lor 0x5a5a))
            ()
        done;
        check_bool
          (Fmt.str "%d distinct slots of 512" (Hashtbl.length seen))
          true
          (Hashtbl.length seen >= 100));
    tc "the domain table: held once, cleared on acquire, fresh when isolated"
      (fun () ->
        let t = Score_cache.acquire () in
        Score_cache.store t ~a:1 ~b:2 ~level:1 ~mode:0 4;
        (match Score_cache.acquire () with
         | _ -> Alcotest.fail "a nested acquire must raise"
         | exception Score_cache.Nested_acquire -> ());
        Score_cache.release t;
        let t' = Score_cache.acquire () in
        check_bool "same storage" true (t == t');
        check_bool "entries of the last holder are gone" true
          (Score_cache.find t' ~a:1 ~b:2 ~level:1 ~mode:0 = Score_cache.absent);
        Score_cache.store t' ~a:1 ~b:2 ~level:1 ~mode:0 4;
        Score_cache.release t';
        Score_cache.isolated (fun () ->
            let u = Score_cache.acquire () and v = Score_cache.acquire () in
            check_bool "isolated tables are fresh" true
              (u != t && v != t && u != v && Score_cache.size u = 0));
        let t'' = Score_cache.acquire () in
        check_bool "isolation ends with its thunk" true (t'' == t);
        Score_cache.release t'');
    tc "clear empties the table" (fun () ->
        let c = Score_cache.create () in
        Score_cache.store c ~a:1 ~b:2 ~level:3 ~mode:0 7;
        Score_cache.clear c;
        check_int "size" 0 (Score_cache.size c);
        check_bool "miss after clear" true
          (Score_cache.find c ~a:1 ~b:2 ~level:3 ~mode:0 = Score_cache.absent));
  ]

(* ---- report aggregation -------------------------------------------- *)

let report_tests =
  [
    tc "make totals the per-block snapshots" (fun () ->
        let snap evals hits =
          let p = Probe.create () in
          (Probe.counters p).Probe.score_evals <- evals;
          (Probe.counters p).Probe.score_hits <- hits;
          Probe.snapshot p
        in
        let r =
          Report.make ~func:"f" ~config:"LSLP"
            [ ("entry", snap 2 1); ("loop", snap 5 4) ]
        in
        check_int "evals" 7 (Report.total_counters r).Probe.score_evals;
        check_int "hits" 5 (Report.total_counters r).Probe.score_hits);
    tc "empty report totals to zero" (fun () ->
        let r = Report.empty ~func:"f" ~config:"LSLP" in
        List.iter
          (fun (label, proj) ->
            check_int label 0 (proj (Report.total_counters r)))
          Probe.counter_fields);
    tc "counter table is deterministic and names every block" (fun () ->
        let reference = kernel "453.vsumsqr" in
        let report, _ = run_with ~cache:true reference in
        let render () =
          Fmt.str "%a" Report.pp_counters report.Pipeline.telemetry
        in
        let table = render () in
        check_string "stable across renders" table (render ());
        List.iter
          (fun (label, _) ->
            check_bool (label ^ " row present") true (contains table label))
          report.Pipeline.telemetry.Report.blocks;
        check_bool "total row" true (contains table "total"));
    tc "json carries func, config, blocks and counters" (fun () ->
        let reference = kernel "453.vsumsqr" in
        let report, _ = run_with ~cache:true reference in
        let json = Report.to_json report.Pipeline.telemetry in
        List.iter
          (fun key -> check_bool key true (contains json key))
          [ "\"function\""; "\"config\""; "\"blocks\""; "\"evals\"";
            "\"timers\""; "\"total\"" ]);
  ]

(* ---- memoization pays, and is invisible (acceptance criterion) ----- *)

let memo_tests =
  [
    tc "catalog: cache at least halves score evaluations, IR unchanged"
      (fun () ->
        let cached_total = ref 0 and uncached_total = ref 0 in
        List.iter
          (fun (k : Catalog.kernel) ->
            let reference = Catalog.compile k in
            let rc, irc = run_with ~cache:true reference in
            let ru, iru = run_with ~cache:false reference in
            check_string (k.Catalog.key ^ " IR") iru irc;
            check_int (k.Catalog.key ^ " uncached runs cacheless") 0
              ((total ru).Probe.score_hits + (total ru).Probe.score_misses);
            cached_total := !cached_total + (total rc).Probe.score_evals;
            uncached_total := !uncached_total + (total ru).Probe.score_evals)
          Catalog.all;
        check_bool "cache saw work" true (!cached_total > 0);
        check_bool
          (Fmt.str "2x fewer evals (cached %d vs uncached %d)" !cached_total
             !uncached_total)
          true
          (2 * !cached_total <= !uncached_total));
    tc "vsumsqr telemetry shape" (fun () ->
        let report, _ = run_with ~cache:true (kernel "453.vsumsqr") in
        let c = total report in
        check_int "one region vectorized" 1 c.Probe.regions_vectorized;
        check_int "none degraded" 0 c.Probe.regions_degraded;
        check_bool "cache hits observed" true (c.Probe.score_hits > 0);
        check_bool "graph nodes built" true (c.Probe.graph_nodes > 0);
        check_bool "instructions emitted" true (c.Probe.instrs_emitted > 0));
  ]

(* ---- the reused domain table never answers stale ------------------- *)

(* The catalog under LSLP and LSLP-LA1..3 at unroll 1 and 4: each compile's
   printed IR and score counters.  Run in two orders in one process and
   on two pool domains, every compile must match a run where each reorder
   call memoizes in a fresh table of its own ({!Score_cache.isolated}):
   an entry surviving from an earlier reorder call, kernel or
   configuration would show as a hit the fresh run does not have. *)
let reuse_cases =
  List.concat_map
    (fun config ->
      List.concat_map
        (fun unroll ->
          List.map
            (fun (k : Catalog.kernel) -> (config, unroll, k))
            Catalog.all)
        [ 1; 4 ])
    [ Config.lslp; Config.lslp_la 1; Config.lslp_la 2; Config.lslp_la 3 ]

let reuse_compile (config, unroll, (k : Catalog.kernel)) =
  let f = Catalog.compile k in
  ignore (Lslp_frontend.Unroll.run ~factor:unroll f);
  let report = Pipeline.run ~config f in
  let c = total report in
  ( Printer.func_to_string f,
    (c.Probe.score_evals, c.Probe.score_hits, c.Probe.score_misses) )

let reuse_name ((config : Config.t), unroll, (k : Catalog.kernel)) =
  Fmt.str "%s %s unroll %d" k.Catalog.key config.Config.name unroll

let reuse_tests =
  [
    tc "the reused memo answers as a fresh table per reorder call would"
      (fun () ->
        let cases = Array.of_list reuse_cases in
        let want =
          Score_cache.isolated (fun () -> Array.map reuse_compile cases)
        in
        let same what k (ir, (e, h, m)) =
          let want_ir, (we, wh, wm) = want.(k) in
          let name = Fmt.str "%s: %s" what (reuse_name cases.(k)) in
          check_string (name ^ " IR") want_ir ir;
          check_int (name ^ " evals") we e;
          check_int (name ^ " hits") wh h;
          check_int (name ^ " misses") wm m
        in
        Array.iteri (fun k case -> same "forward" k (reuse_compile case)) cases;
        for k = Array.length cases - 1 downto 0 do
          same "reverse" k (reuse_compile cases.(k))
        done;
        let jobs =
          Array.map
            (fun case -> (reuse_name case, fun ~inject:_ ~deadline:_ ->
                 reuse_compile case))
            cases
        in
        let pool =
          { Lslp_service.Pool.default_config with domains = 2; retries = 0 }
        in
        Array.iteri
          (fun k outcome ->
            match outcome with
            | Lslp_service.Pool.Done r -> same "2 domains" k r
            | Lslp_service.Pool.Degraded_to_failure { failure; _ } ->
              Alcotest.failf "%s: job failed: %a" (reuse_name cases.(k))
                Lslp_service.Pool.pp_failure failure)
          (Lslp_service.Pool.run pool jobs));
  ]

(* ---- differential equivalence over generated programs -------------- *)

let qcheck_cache_diff =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40
       ~name:"cached and uncached scoring are observationally identical"
       ~print:string_of_int
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let st = Random.State.make [| seed |] in
         let prog = Gen.generate st in
         let reference = Gen.build prog in
         Array.for_all
           (fun base ->
             let config = Config.with_remarks true base in
             let rc, irc = run_with ~cache:true ~config reference in
             let ru, iru = run_with ~cache:false ~config reference in
             irc = iru
             && remark_strings rc = remark_strings ru
             && rc.Pipeline.vectorized_regions
                = ru.Pipeline.vectorized_regions
             && rc.Pipeline.degraded_regions = ru.Pipeline.degraded_regions)
           config_pool))

(* ---- cache vs fuel budget ------------------------------------------ *)

(* Cache hits burn no fuel, so at every point of the (identical) search
   the cached run has spent no more fuel than the uncached one: any
   region the uncached run finishes, the cached run finishes identically.
   Vectorized regions can only be gained, degradations only lost. *)
let qcheck_budget_superset =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40
       ~name:"under tight fuel the cache never loses a region"
       ~print:string_of_int
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let st = Random.State.make [| seed |] in
         let prog = Gen.generate st in
         let reference = Gen.build prog in
         let fuel = 5 + Random.State.int st 150 in
         let tight =
           Config.with_budget
             { Budget.default with Budget.lookahead_fuel = fuel }
             Config.lslp
         in
         let rc, _ = run_with ~cache:true ~config:tight reference in
         let ru, _ = run_with ~cache:false ~config:tight reference in
         subset (vectorized_ids ru) (vectorized_ids rc)
         && rc.Pipeline.degraded_regions <= ru.Pipeline.degraded_regions))

let budget_tests =
  [
    tc "tight fuel over the catalog: cached keeps every uncached region"
      (fun () ->
        List.iter
          (fun fuel ->
            let tight =
              Config.with_budget
                { Budget.default with Budget.lookahead_fuel = fuel }
                Config.lslp
            in
            List.iter
              (fun (k : Catalog.kernel) ->
                let reference = Catalog.compile k in
                let rc, _ = run_with ~cache:true ~config:tight reference in
                let ru, _ = run_with ~cache:false ~config:tight reference in
                check_bool
                  (Fmt.str "%s fuel=%d superset" k.Catalog.key fuel)
                  true
                  (subset (vectorized_ids ru) (vectorized_ids rc));
                check_bool
                  (Fmt.str "%s fuel=%d degradations" k.Catalog.key fuel)
                  true
                  (rc.Pipeline.degraded_regions
                   <= ru.Pipeline.degraded_regions))
              Catalog.all)
          [ 20; 60; 150 ]);
    tc "an exhausted region leaves no stale cache state behind" (fun () ->
        let reference = kernel "453.vsumsqr" in
        (* control run first, then an exhausting run, then the probe run:
           if any cache entry outlived the rollback, the probe run would
           differ from the control *)
        let control_report, control_ir = run_with ~cache:true reference in
        let tight =
          Config.with_budget
            { Budget.default with Budget.lookahead_fuel = 10 }
            Config.lslp
        in
        let exhausted, _ = run_with ~cache:true ~config:tight reference in
        check_bool "tight run actually degraded" true
          (exhausted.Pipeline.degraded_regions > 0);
        let probe_report, probe_ir = run_with ~cache:true reference in
        check_string "same IR" control_ir probe_ir;
        List.iter
          (fun (label, proj) ->
            check_int label
              (proj (total control_report))
              (proj (total probe_report)))
          Probe.counter_fields);
  ]

let suite =
  probe_tests @ cache_tests @ reuse_tests @ report_tests @ memo_tests
  @ [ qcheck_cache_diff; qcheck_budget_superset ]
  @ budget_tests
