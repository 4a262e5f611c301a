(* End-to-end pipeline tests: the Figure-1 driver loop, thresholds,
   configuration presets and reports. *)

open Lslp_core
open Helpers

let pipeline_tests =
  [
    tc "unprofitable regions stay scalar and unchanged" (fun () ->
        let f = kernel "motivation-loads" in
        let n = Lslp_ir.Block.length (Lslp_ir.Func.entry f) in
        let report = Pipeline.run ~config:Config.slp f in
        check_int "no vectorization" 0 report.Pipeline.vectorized_regions;
        check_int "block unchanged" n
          (Lslp_ir.Block.length (Lslp_ir.Func.entry f)));
    tc "threshold moves the profitability bar" (fun () ->
        (* figure 2 under SLP costs exactly 0: threshold 1 accepts it *)
        let f = kernel "motivation-loads" in
        let config = Config.with_threshold 1 Config.slp in
        let report = Pipeline.run ~config f in
        check_int "vectorized at threshold 1" 1
          report.Pipeline.vectorized_regions);
    tc "regions report their seed description" (fun () ->
        let f = kernel "motivation-loads" in
        let report = Pipeline.run ~config:Config.lslp f in
        match report.Pipeline.regions with
        | [ r ] ->
          check_bool "mentions A" true
            (String.length r.Lslp_check.Remark.region > 0
             && r.Lslp_check.Remark.region.[0] = 'A');
          check_int "VL" 2 r.Lslp_check.Remark.lanes
        | _ -> Alcotest.fail "expected one region");
    tc "total_cost sums only vectorized regions" (fun () ->
        let f = kernel "motivation-loads" in
        let report = Pipeline.run ~config:Config.slp f in
        check_int "nothing vectorized -> 0" 0 report.Pipeline.total_cost);
    tc "run_cloned leaves the input untouched" (fun () ->
        let f = kernel "motivation-multi" in
        let before = Lslp_ir.Printer.func_to_string f in
        let _report, _g = Pipeline.run_cloned ~config:Config.lslp f in
        check_string "unchanged" before (Lslp_ir.Printer.func_to_string f));
    tc "multiple independent regions all vectorize" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 B[], i64 R[], i64 S[], i64 i) {
  R[i+0] = A[i+0] + B[i+0];
  R[i+1] = A[i+1] + B[i+1];
  S[i+0] = A[i+2] * B[i+2];
  S[i+1] = A[i+3] * B[i+3];
}
|} in
        let reference = Lslp_ir.Func.clone f in
        let report = Pipeline.run ~config:Config.lslp f in
        check_int "two regions" 2 report.Pipeline.vectorized_regions;
        assert_sound ~reference ~candidate:f ());
    tc "empty function is a no-op" (fun () ->
        let f = compile "kernel k() {}" in
        let report = Pipeline.run ~config:Config.lslp f in
        check_int "no regions" 0 (List.length report.Pipeline.regions));
  ]

let config_tests =
  [
    tc "preset names" (fun () ->
        check_string "lslp" "LSLP" Config.lslp.Config.name;
        check_string "slp" "SLP" Config.slp.Config.name;
        check_string "slp-nr" "SLP-NR" Config.slp_nr.Config.name;
        check_string "la" "LSLP-LA2" (Config.lslp_la 2).Config.name;
        check_string "multi" "LSLP-Multi3" (Config.lslp_multi 3).Config.name);
    tc "lslp_la keeps multi-nodes unlimited" (fun () ->
        check_bool "unlimited" true
          ((Config.lslp_la 0).Config.max_multinode_groups = None));
    tc "lslp_multi keeps look-ahead at 8" (fun () ->
        check_int "depth" 8 (Config.lslp_multi 2).Config.lookahead_depth);
    tc "multinode_limit clamps to >= 1" (fun () ->
        check_int "zero clamps" 1
          (Config.multinode_limit (Config.lslp_multi 0)));
    tc "effective_max_lanes respects the model" (fun () ->
        check_int "avx2" 4 (Config.effective_max_lanes Config.lslp Lslp_ir.Types.I64));
  ]

let sensitivity_tests =
  [
    tc "LA0 loses figure 2 (ties unbroken)" (fun () ->
        let f = kernel "motivation-loads" in
        let r0 = Pipeline.run ~config:(Config.lslp_la 0) (Lslp_ir.Func.clone f) in
        let r8 = Pipeline.run ~config:Config.lslp (Lslp_ir.Func.clone f) in
        check_bool "LA8 strictly better" true
          (r8.Pipeline.total_cost < r0.Pipeline.total_cost));
    tc "Multi1 loses figure 4 (chain not coarsened)" (fun () ->
        let f = kernel "motivation-multi" in
        let r1 =
          Pipeline.run ~config:(Config.lslp_multi 1) (Lslp_ir.Func.clone f)
        in
        let full = Pipeline.run ~config:Config.lslp (Lslp_ir.Func.clone f) in
        check_bool "full better" true
          (full.Pipeline.total_cost < r1.Pipeline.total_cost));
    tc "deeper look-ahead never hurts the motivating examples" (fun () ->
        List.iter
          (fun key ->
            let f = kernel key in
            let costs =
              List.map
                (fun d ->
                  (Pipeline.run ~config:(Config.lslp_la d)
                     (Lslp_ir.Func.clone f))
                    .Pipeline.total_cost)
                [ 1; 2; 4; 8 ]
            in
            let rec non_increasing = function
              | a :: (b :: _ as rest) -> a >= b && non_increasing rest
              | _ -> true
            in
            check_bool (key ^ " monotone") true (non_increasing costs))
          [ "motivation-loads"; "motivation-opcodes"; "motivation-multi" ]);
    tc "score-combine ablation: max also solves figure 2" (fun () ->
        let f = kernel "motivation-loads" in
        let config = Config.with_score_combine Config.Score_max Config.lslp in
        let report = Pipeline.run ~config f in
        check_int "vectorized" 1 report.Pipeline.vectorized_regions);
  ]

(* An error already in the input is reported once, by the legality
   validator's verifier sweep, not again under a pass's name. *)
let diagnostic_tests =
  [
    tc "an input verifier error yields one diagnostic per message" (fun () ->
        let b =
          Lslp_ir.Builder.create ~name:"x"
            ~args:
              [ ("A", Lslp_ir.Instr.Array_arg Lslp_ir.Types.I64);
                ("i", Lslp_ir.Instr.Int_arg) ]
            ()
        in
        let v = Lslp_ir.Builder.load b ~base:"A" (Lslp_ir.Builder.idx 0) in
        ignore (Lslp_ir.Builder.start_block b ());
        Lslp_ir.Builder.store b ~base:"A" (Lslp_ir.Builder.idx 1) v;
        let f = Lslp_ir.Builder.func b in
        let report =
          Pipeline.run ~config:(Config.with_validate true Config.lslp) f
        in
        let errors =
          Lslp_check.Diagnostic.errors report.Pipeline.diagnostics
        in
        let expected =
          List.map
            (fun (e : Lslp_ir.Verifier.error) -> ("verifier", e.message))
            (Lslp_ir.Verifier.check_func f)
        in
        check_bool "the input is invalid" true (expected <> []);
        Alcotest.(check (list (pair string string)))
          "one verifier diagnostic per message" expected
          (List.map
             (fun (d : Lslp_check.Diagnostic.t) ->
               (d.Lslp_check.Diagnostic.rule, d.Lslp_check.Diagnostic.message))
             errors));
  ]

let suite = pipeline_tests @ config_tests @ sensitivity_tests @ diagnostic_tests
