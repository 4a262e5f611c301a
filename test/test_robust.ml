(* Fail-soft pipeline tests: fault injection at every pass boundary,
   transactional rollback, resource budgets and the differential fuzzer.

   The load-bearing property, checked against every catalog kernel: no
   injected fault ever escapes [Pipeline.run], and whatever the pipeline
   leaves behind is structurally valid and observationally equivalent to
   the scalar reference. *)

open Lslp_ir
open Lslp_core
open Helpers
module Budget = Lslp_robust.Budget
module Inject = Lslp_robust.Inject
module Transact = Lslp_robust.Transact

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go k = k + m <= n && (String.sub s k m = sub || go (k + 1)) in
  m = 0 || go 0

let inject_point ?(seed = 3) p = Inject.make ~points:[ p ] ~rate:1.0 ~seed ()
let config_with p = Config.with_inject (inject_point p) Config.lslp

(* The reference keeps its loops; the candidate goes through region
   formation (unrolling) exactly like the lslpc driver. *)
let load key =
  let reference = kernel key in
  let candidate = Func.clone reference in
  ignore (Lslp_frontend.Unroll.run ~factor:4 candidate);
  (reference, candidate)

(* A kernel with a profitable reduction chain, for the reduction boundary. *)
let dot_src = {|
kernel dot(f64 S[], f64 A[], f64 B[], i64 i) {
  S[i] = A[i+0] * B[i+0] + A[i+1] * B[i+1]
       + (A[i+2] * B[i+2] + A[i+3] * B[i+3]);
}
|}

(* Lane 0's sum is also read by a scalar multiply that survives codegen,
   which rewrites that multiply's operand to an extract in place. *)
let extract_src = {|
kernel k(f64 R[], f64 S[], f64 A[], f64 B[], i64 i) {
  f64 x = A[i] + B[i];
  R[i] = x;
  R[i+1] = A[i+1] + B[i+1];
  S[i] = x * 3.0;
}
|}

(* Straight code, a counted loop, straight code: three blocks, each with a
   vectorizable store pair once the loop body is unrolled. *)
let multi_block_src = {|
kernel k(f64 Y[], f64 X[], f64 Z[]) {
  Z[0] = X[0] * 2.0;
  Z[1] = X[1] * 2.0;
  for (i64 j = 0; j < 64; j += 1) {
    Y[j] = X[j] + Z[j];
  }
  Z[2] = X[2] + Y[2];
  Z[3] = X[3] + Y[3];
}
|}

(* Each instruction of [f] with the [kind] it holds now. *)
let kinds_of (f : Func.t) =
  Func.fold_instrs (fun acc (i : Instr.t) -> (i, i.Instr.kind) :: acc) [] f

(* The state [kinds_of] captured is back: the same instructions in every
   block, each holding physically the same kind. *)
let check_kinds_back what (f : Func.t) kinds =
  check_bool (what ^ ": same instructions") true
    (List.equal ( == ) (List.map fst kinds) (List.map fst (kinds_of f)));
  List.iter
    (fun ((i : Instr.t), k) ->
      if i.Instr.kind != k then
        Alcotest.failf "%s: %%%d holds another kind" what i.Instr.id)
    kinds

(* ---- injection spec parsing and determinism ------------------------ *)

let inject_tests =
  [
    tc "parse accepts point, rate and seed forms" (fun () ->
        List.iter
          (fun spec ->
            match Inject.parse spec with
            | Ok _ -> ()
            | Error e -> Alcotest.failf "%s rejected: %s" spec e)
          [ "codegen"; "all"; "reorder:0.5"; "all:0.25:7"; "corrupt:1.0:0" ]);
    tc "parse rejects junk" (fun () ->
        List.iter
          (fun spec ->
            match Inject.parse spec with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%s accepted" spec)
          [ "bogus"; "codegen:nope"; "all:0.5:x"; "" ]);
    tc "point names round-trip" (fun () ->
        List.iter
          (fun p ->
            match Inject.point_of_name (Inject.point_name p) with
            | Some q -> check_bool (Inject.point_name p) true (p = q)
            | None -> Alcotest.fail "name did not round-trip")
          Inject.all_points);
    tc "same seed, same dice" (fun () ->
        let roll () =
          let i = Inject.make ~rate:0.5 ~seed:9 () in
          List.init 32 (fun _ -> Inject.fires i Inject.Codegen)
        in
        check_bool "deterministic" true (roll () = roll ()));
    tc "reseed keeps the spec, changes the dice" (fun () ->
        match Inject.parse "codegen:0.5:1" with
        | Error e -> Alcotest.fail e
        | Ok i ->
          let rolls j = List.init 64 (fun _ -> Inject.fires j Inject.Codegen) in
          let a = rolls (Inject.reseed i ~seed:1) in
          let b = rolls (Inject.reseed i ~seed:1) in
          let c = rolls (Inject.reseed i ~seed:2) in
          check_bool "same seed agrees" true (a = b);
          check_bool "different seed differs" true (a <> c));
    tc "corrupt_block damage is verifier-visible" (fun () ->
        let f = compile {|
kernel k(f64 R[], f64 A[], i64 i) { R[i] = A[i] + A[i+1]; }
|} in
        check_bool "corrupted" true (Inject.corrupt_block (Func.entry f));
        check_bool "verifier rejects it" false (Helpers.is_valid f));
    tc "corrupt_block on an empty block is a no-op" (fun () ->
        let f = compile "kernel k() {}" in
        check_bool "nothing to damage" false
          (Inject.corrupt_block (Func.entry f)));
  ]

(* ---- transactions -------------------------------------------------- *)

let transact_tests =
  [
    tc "protect restores the snapshot on failure" (fun () ->
        let f = kernel "motivation-loads" in
        let before = Printer.func_to_string f in
        let snapshot = Transact.snapshot_func f in
        (match
           Transact.protect ~snapshot ~pass:(fun () -> "test") (fun () ->
               ignore (Inject.corrupt_block (Func.entry f));
               failwith "boom")
         with
        | Ok () -> Alcotest.fail "expected a failure"
        | Error fl ->
          check_string "pass" "test" fl.Transact.pass;
          check_bool "error mentions boom" true (contains fl.Transact.error "boom");
          check_bool "not budget" false fl.Transact.budget_exhausted);
        check_string "rolled back" before (Printer.func_to_string f));
    tc "protect passes successful results through" (fun () ->
        let f = kernel "motivation-loads" in
        let snapshot = Transact.snapshot_func f in
        match
          Transact.protect ~snapshot ~pass:(fun () -> "test") (fun () -> 17)
        with
        | Ok v -> check_int "value" 17 v
        | Error _ -> Alcotest.fail "unexpected failure");
    tc "restore is idempotent" (fun () ->
        let f = kernel "motivation-loads" in
        let before = Printer.func_to_string f in
        let snapshot = Transact.snapshot_func f in
        Transact.restore snapshot;
        Transact.restore snapshot;
        check_string "unchanged" before (Printer.func_to_string f));
    tc "failure_of_exn classifies budget exhaustion" (fun () ->
        let fl =
          Transact.failure_of_exn ~pass:"graph-build"
            (Budget.Exhausted "fuel cap of 4")
        in
        check_bool "budget" true fl.Transact.budget_exhausted;
        check_string "pass" "graph-build" fl.Transact.pass);
    tc "failure_of_exn keeps Check_failed attribution" (fun () ->
        let fl =
          Transact.failure_of_exn ~pass:"outer"
            (Transact.Check_failed { pass = "verify"; error = "bad use" })
        in
        check_string "pass" "verify" fl.Transact.pass;
        check_string "error" "bad use" fl.Transact.error);
  ]

(* ---- rollback under injection, every boundary x every kernel ------- *)

let catalog_keys =
  List.map
    (fun (k : Lslp_kernels.Catalog.kernel) -> k.Lslp_kernels.Catalog.key)
    Lslp_kernels.Catalog.all

let rollback_tests =
  List.map
    (fun p ->
      tc
        (Fmt.str "inject %s: every catalog kernel stays sound"
           (Inject.point_name p))
        (fun () ->
          List.iter
            (fun key ->
              let reference, candidate = load key in
              let report = Pipeline.run ~config:(config_with p) candidate in
              check_bool
                (Fmt.str "%s: degraded count sane" key)
                true
                (report.Pipeline.degraded_regions >= 0);
              assert_sound ~reference ~candidate ())
            catalog_keys))
    Inject.all_points
  @ [
      tc "every main-path boundary produces a degraded region" (fun () ->
          List.iter
            (fun p ->
              let _, candidate = load "motivation-loads" in
              let report = Pipeline.run ~config:(config_with p) candidate in
              check_bool (Inject.point_name p) true
                (report.Pipeline.degraded_regions >= 1))
            [
              Inject.Graph_build; Inject.Reorder; Inject.Codegen;
              Inject.Verify; Inject.Corrupt; Inject.Cse; Inject.Dce;
            ]);
      tc "reduction boundary degrades the dot-product kernel" (fun () ->
          let f = compile dot_src in
          let reference = Func.clone f in
          let report =
            Pipeline.run ~config:(config_with Inject.Reduction) f
          in
          check_bool "degraded" true (report.Pipeline.degraded_regions >= 1);
          assert_sound ~reference ~candidate:f ());
      tc "all-points injection rolls every kernel back to scalar" (fun () ->
          List.iter
            (fun key ->
              let _, candidate = load key in
              let before = Printer.func_to_string candidate in
              let inject = Inject.make ~rate:1.0 ~seed:11 () in
              let config = Config.with_inject inject Config.lslp in
              let report = Pipeline.run ~config candidate in
              check_int
                (Fmt.str "%s: nothing vectorized" key)
                0 report.Pipeline.vectorized_regions;
              check_string
                (Fmt.str "%s: scalar-identical" key)
                before
                (Printer.func_to_string candidate))
            catalog_keys);
      tc "degraded regions carry the failing pass" (fun () ->
          let _, candidate = load "motivation-loads" in
          let report =
            Pipeline.run ~config:(config_with Inject.Codegen) candidate
          in
          let degraded =
            List.filter_map
              (fun (r : Lslp_check.Remark.t) ->
                match r.Lslp_check.Remark.outcome with
                | Lslp_check.Remark.Degraded { pass; _ } -> Some pass
                | _ -> None)
              report.Pipeline.regions
          in
          check_bool "at least one" true (degraded <> []);
          check_bool "names codegen" true (List.mem "codegen" degraded));
      tc "injection under validation produces no legality errors" (fun () ->
          let _, candidate = load "motivation-multi" in
          let config =
            Config.(
              lslp |> with_validate true
              |> with_inject (inject_point Inject.Corrupt))
          in
          let report = Pipeline.run ~config candidate in
          check_int "no diagnostics" 0
            (List.length
               (Lslp_check.Diagnostic.errors report.Pipeline.diagnostics)));
    ]

(* ---- resource budgets ---------------------------------------------- *)

let budget_tests =
  [
    tc "look-ahead fuel cap degrades, stays sound" (fun () ->
        let budget = { Budget.unlimited with Budget.lookahead_fuel = 4 } in
        let config = Config.(lslp |> with_budget budget |> with_remarks true) in
        let reference, candidate = load "motivation-loads" in
        let report = Pipeline.run ~config candidate in
        check_bool "degraded" true (report.Pipeline.degraded_regions >= 1);
        check_bool "budget remark" true
          (List.exists
             (fun r ->
               match r.Lslp_check.Remark.outcome with
               | Lslp_check.Remark.Budget_exhausted _ -> true
               | _ -> false)
             report.Pipeline.remarks);
        assert_sound ~reference ~candidate ());
    tc "graph-node cap degrades, stays sound" (fun () ->
        let budget = { Budget.unlimited with Budget.max_graph_nodes = 1 } in
        let config = Config.with_budget budget Config.lslp in
        let reference, candidate = load "motivation-multi" in
        let report = Pipeline.run ~config candidate in
        check_bool "degraded" true (report.Pipeline.degraded_regions >= 1);
        assert_sound ~reference ~candidate ());
    tc "region-step cap caps the work, stays sound" (fun () ->
        let budget = { Budget.unlimited with Budget.max_region_steps = 1 } in
        let config = Config.with_budget budget Config.lslp in
        let reference, candidate = load "453.boy-surface" in
        let _report = Pipeline.run ~config candidate in
        assert_sound ~reference ~candidate ());
    tc "default budget never fires on the catalog" (fun () ->
        List.iter
          (fun key ->
            let _, candidate = load key in
            let config = Config.with_budget Budget.default Config.lslp in
            let report = Pipeline.run ~config candidate in
            check_int (Fmt.str "%s: no degradation" key) 0
              report.Pipeline.degraded_regions)
          catalog_keys);
  ]

(* ---- one verdict per region ---------------------------------------- *)

module Remark = Lslp_check.Remark
module Probe = Lslp_telemetry.Probe

let verdict_configs =
  [| Config.slp_nr; Config.slp; Config.lslp; Config.lslp_la 0;
     Config.lslp_la 2; Config.lslp_multi 1; Config.lslp_multi 2 |]

let verdict_name = function
  | Remark.Vectorized -> "vectorized"
  | Remark.Not_schedulable -> "not-schedulable"
  | Remark.Unprofitable -> "kept-scalar"
  | Remark.Degraded _ | Remark.Budget_exhausted _ -> "degraded"
  | Remark.Reduction_unmatched _ -> "reduction-unmatched"

let region_key (r : Remark.t) =
  ( r.Remark.block,
    r.Remark.region,
    r.Remark.lanes,
    verdict_name r.Remark.outcome )

(* A random program under a random config, with either a random fault
   spec or a tight budget: the region list, the report counts, the probe
   counters and the remarks must all tell the same story. *)
let qcheck_one_verdict =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60
       ~name:"regions, counts, counters and remarks agree on every verdict"
       ~print:string_of_int
       QCheck2.Gen.(int_range 0 1_000_000)
       (fun seed ->
         let st = Random.State.make [| seed |] in
         let prog = Lslp_fuzz.Gen.generate st in
         let candidate = Lslp_fuzz.Gen.build prog in
         ignore (Lslp_frontend.Unroll.run ~factor:4 candidate);
         let base =
           verdict_configs.(Random.State.int st (Array.length verdict_configs))
         in
         let config =
           if Random.State.bool st then
             let points =
               List.filter (fun _ -> Random.State.bool st) Inject.all_points
             in
             Config.with_inject
               (Inject.make ~points ~rate:(Random.State.float st 1.0) ~seed ())
               base
           else
             Config.with_budget
               { Budget.default with
                 Budget.lookahead_fuel = 1 + Random.State.int st 60;
                 max_graph_nodes = 1 + Random.State.int st 12 }
               base
         in
         let config = Config.with_remarks true config in
         let report = Pipeline.run ~config candidate in
         let counters =
           Lslp_telemetry.Report.total_counters report.Pipeline.telemetry
         in
         let keys = List.map region_key report.Pipeline.regions in
         let count v =
           List.length (List.filter (fun (_, _, _, o) -> o = v) keys)
         in
         let remark_keys =
           List.filter_map
             (fun (r : Remark.t) ->
               match r.Remark.outcome with
               | Remark.Reduction_unmatched _ -> None
               | _ -> Some (region_key r))
             report.Pipeline.remarks
         in
         count "vectorized" = report.Pipeline.vectorized_regions
         && count "vectorized" = counters.Probe.regions_vectorized
         && count "degraded" = report.Pipeline.degraded_regions
         && count "degraded" = counters.Probe.regions_degraded
         && keys = remark_keys))

(* The lines of [text] that mention one of [keep]. *)
let verdict_lines ~keep text =
  String.concat "\n"
    (List.filter
       (fun l -> List.exists (contains l) keep)
       (String.split_on_char '\n' text))

let verdict_tests =
  [
    tc "budget exhaustion renders the same verdict in every channel"
      (fun () ->
        (* one region, one verdict: the report line, the remark and the
           trace all spell the same exhausted budget *)
        let budget = { Budget.unlimited with Budget.lookahead_fuel = 4 } in
        let config =
          Config.(lslp |> with_budget budget |> with_remarks true
                  |> with_trace true)
        in
        let _, candidate = load "motivation-loads" in
        let report = Pipeline.run ~config candidate in
        check_string "report"
          "LSLP: 1 region(s), 0 vectorized, 1 degraded, total cost +0\n\
          \  [entry] A[i] x2 (VL=2): cost +0 [degraded: graph-build: budget \
           exhausted: look-ahead fuel cap of 4 [budget]]"
          (Fmt.str "%a" Pipeline.pp_report report);
        check_string "remarks"
          "region [entry] A[i] x2 (VL=2):\n\
          \  remark[outcome]: degraded: graph-build exhausted the budget \
           exhausted: look-ahead fuel cap of 4 budget; region rolled back to \
           scalar"
          (verdict_lines ~keep:[ "region "; "remark[outcome]" ]
             (String.concat "\n"
                (List.map (Fmt.str "%a" Remark.pp)
                   report.Pipeline.remarks)));
        check_string "trace"
          "0006 [entry] rollback in graph-build: budget exhausted: look-ahead \
           fuel cap of 4 [budget]\n\
           0007 [entry] outcome A[i] x2 (VL=2): degraded"
          (verdict_lines ~keep:[ "rollback"; "outcome" ]
             (Lslp_trace.Trace.to_log report.Pipeline.trace_events)));
    qcheck_one_verdict;
  ]

(* ---- reporting ----------------------------------------------------- *)

let report_tests =
  [
    tc "pp_report shows the degraded count and marker" (fun () ->
        let _, candidate = load "motivation-loads" in
        let report =
          Pipeline.run ~config:(config_with Inject.Graph_build) candidate
        in
        let s = Fmt.str "%a" Pipeline.pp_report report in
        check_bool "degraded visible" true (contains s "degraded"));
    tc "pp_report is unchanged on healthy runs" (fun () ->
        let _, candidate = load "motivation-loads" in
        let report = Pipeline.run ~config:Config.lslp candidate in
        let s = Fmt.str "%a" Pipeline.pp_report report in
        check_bool "no degraded chatter" false (contains s "degraded"));
    tc "degraded outcome renders in JSON remarks" (fun () ->
        let _, candidate = load "motivation-loads" in
        let config =
          Config.(
            lslp |> with_remarks true
            |> with_inject (inject_point Inject.Codegen))
        in
        let report = Pipeline.run ~config candidate in
        let json =
          Lslp_check.Remark.report_to_json ~config_name:"LSLP"
            ~func_name:"k" ~diagnostics:[] report.Pipeline.remarks
        in
        check_bool "mentions degraded" true (contains json "degraded"));
  ]

(* ---- differential fuzzer smoke ------------------------------------- *)

let fuzz_tests =
  [
    tc "fuzz: 60 pinned-seed cases, zero failures" (fun () ->
        let stats = Lslp_fuzz.Fuzz.run ~cases:60 ~seed:20260705 () in
        check_int "cases" 60 stats.Lslp_fuzz.Fuzz.cases;
        (match stats.Lslp_fuzz.Fuzz.failures with
        | [] -> ()
        | f :: _ ->
          Alcotest.failf "case %d failed: %s (%s)" f.Lslp_fuzz.Fuzz.case
            f.Lslp_fuzz.Fuzz.problem f.Lslp_fuzz.Fuzz.desc);
        check_bool "ok" true (Lslp_fuzz.Fuzz.ok stats));
    tc "fuzz: generation is deterministic per seed" (fun () ->
        let gen seed =
          let st = Random.State.make [| seed |] in
          List.init 10 (fun _ -> Lslp_fuzz.Gen.describe (Lslp_fuzz.Gen.generate st))
        in
        check_bool "same seed" true (gen 5 = gen 5);
        check_bool "different seed" true (gen 5 <> gen 6));
    tc "fuzz: forced faults everywhere, still zero failures" (fun () ->
        match Inject.parse "all:0.9:1" with
        | Error e -> Alcotest.fail e
        | Ok spec ->
          let stats =
            Lslp_fuzz.Fuzz.run ~cases:40 ~seed:7 ~inject_spec:spec ()
          in
          check_bool "ok" true (Lslp_fuzz.Fuzz.ok stats));
    tc "fuzz: forcing a case's drawn config replays the case" (fun () ->
        let module Fuzz = Lslp_fuzz.Fuzz in
        let configs =
          Config.
            [ slp_nr; slp; lslp; lslp_la 0; lslp_la 2; lslp_multi 1;
              lslp_multi 2 ]
        in
        for k = 0 to 49 do
          let drawn = Fuzz.case ~seed:42 k in
          let name =
            match drawn with
            | Fuzz.Passed p -> p.config_name
            | Fuzz.Failed f -> f.Fuzz.config_name
          in
          let config =
            List.find (fun (c : Config.t) -> c.Config.name = name) configs
          in
          check_bool
            (Printf.sprintf "case %d under %s" k name)
            true
            (Fuzz.case ~arm:(Fuzz.Classic (Some config)) ~seed:42 k = drawn)
        done);
    tc "fuzz: an unforced degradation fails the case, a spent budget not"
      (fun () ->
        let report, _ = vectorize (kernel "motivation-multi") in
        let region name outcome =
          {
            Lslp_check.Remark.region = name;
            block = "entry";
            lanes = 0;
            cost = None;
            threshold = 0;
            outcome;
            notes = [];
          }
        in
        let degraded =
          region "A[i] x2"
            (Lslp_check.Remark.Degraded
               { pass = "codegen"; error = "gather lane 0 is not scalar" })
        and exhausted =
          region "B[i] x2"
            (Lslp_check.Remark.Budget_exhausted
               { pass = "graph-build"; what = "look-ahead fuel" })
        in
        let judge ~faults regions =
          Lslp_fuzz.Fuzz.unforced_degradation ~faults
            { report with Pipeline.regions }
        in
        check
          Alcotest.(option string)
          "the degraded region fails the case"
          (Some
             "region A[i] x2 degraded with no fault armed: codegen: gather \
              lane 0 is not scalar")
          (judge ~faults:false [ degraded; exhausted ]);
        check
          Alcotest.(option string)
          "the spent budget does not" None
          (judge ~faults:false [ exhausted ]);
        check
          Alcotest.(option string)
          "with a fault armed, neither does" None
          (judge ~faults:true [ degraded; exhausted ]));
  ]

(* Rollback over the in-place rewrites of a real commit. *)
let restore_tests =
  [
    tc "restore after Codegen.run: same IR, physically the same kinds"
      (fun () ->
        let f = compile extract_src in
        let b = Func.entry f in
        let before = Printer.func_to_string f and kinds = kinds_of f in
        let snapshot = Transact.snapshot_block b in
        let deps = Lslp_analysis.Depgraph.build b in
        let seed =
          match
            Seeds.collect ~arena:(Lslp_analysis.Depgraph.arena deps)
              Config.lslp b
          with
          | s :: _ -> s
          | [] -> Alcotest.fail "no seed"
        in
        let graph, _ = Graph_builder.build ~deps Config.lslp b seed in
        (match Codegen.run ~deps graph b with
         | Codegen.Vectorized -> ()
         | Codegen.Not_schedulable | Codegen.Failed _ ->
           Alcotest.fail "not vectorized");
        check_bool "a surviving operand was rewritten in place" true
          (List.exists
             (fun ((i : Instr.t), k) ->
               Block.mem b i && i.Instr.kind != k)
             kinds);
        Transact.restore snapshot;
        check_string "printed IR" before (Printer.func_to_string f);
        check_kinds_back "codegen" f kinds);
    tc "snapshot_func restores a multi-block loop kernel after the pipeline"
      (fun () ->
        let f = compile multi_block_src in
        ignore (Lslp_frontend.Unroll.run ~factor:4 f);
        check_bool "several blocks" true (List.length (Func.blocks f) >= 3);
        let before = Printer.func_to_string f and kinds = kinds_of f in
        let snapshot = Transact.snapshot_func f in
        let report = Pipeline.run f in
        check_int "every block vectorized" (List.length (Func.blocks f))
          report.Pipeline.vectorized_regions;
        Transact.restore snapshot;
        check_string "printed IR" before (Printer.func_to_string f);
        check_kinds_back "pipeline" f kinds);
  ]

let suite =
  inject_tests @ transact_tests @ rollback_tests @ budget_tests
  @ report_tests @ fuzz_tests @ verdict_tests @ restore_tests
