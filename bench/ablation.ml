(* Ablation benches for the design decisions DESIGN.md calls out:
   look-ahead score combination (sum vs max), the profitability threshold,
   the target vector width, and the reduction-seed extension. *)

open Lslp_core
open Lslp_kernels
open Harness

let header title =
  Fmt.pr "@.============================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "============================================================@."

let gmean_speedup config =
  geomean
    (List.map
       (fun (k : Catalog.kernel) ->
         let m = List.hd (measure ~config_list:[ config ] k.key) in
         speedup m)
       Catalog.table2)

let total_costs config =
  List.fold_left
    (fun acc (k : Catalog.kernel) ->
      let m = List.hd (measure ~config_list:[ config ] k.key) in
      acc + m.accepted_cost)
    0 Catalog.table2

(* Footnote 4: sum of pair scores vs maximum. *)
let score_combine () =
  header "Ablation: look-ahead score combination (paper footnote 4)";
  let sum = Config.lslp in
  let max_ = { (Config.with_score_combine Config.Score_max Config.lslp)
               with Config.name = "LSLP-max" } in
  Fmt.pr "%-12s %12s %12s@." "combine" "Σ cost" "GMean speedup";
  List.iter
    (fun config ->
      Fmt.pr "%-12s %+12d %11.2fx@." config.Config.name (total_costs config)
        (gmean_speedup config))
    [ sum; max_ ]

(* The "usually 0" threshold of §2.2 step 5. *)
let threshold_sweep () =
  header "Ablation: profitability threshold (paper: \"usually 0\")";
  Fmt.pr "%-10s %10s %10s %14s@." "threshold" "regions" "Σ cost"
    "GMean speedup";
  List.iter
    (fun t ->
      let config =
        { (Config.with_threshold t Config.lslp)
          with Config.name = Fmt.str "LSLP(t=%+d)" t }
      in
      let regions =
        List.fold_left
          (fun acc (k : Catalog.kernel) ->
            let f = Catalog.compile k in
            let report, _ = Pipeline.run_cloned ~config f in
            acc + report.Pipeline.vectorized_regions)
          0 Catalog.table2
      in
      Fmt.pr "%+10d %10d %+10d %13.2fx@." t regions (total_costs config)
        (gmean_speedup config))
    [ -4; -2; 0; 2; 4 ]

(* 128-bit (SSE-like) vs 256-bit (AVX2) targets. *)
let vector_width () =
  header "Ablation: target vector width";
  Fmt.pr "%-10s %12s %14s@." "width" "Σ cost" "GMean speedup";
  List.iter
    (fun (name, model) ->
      let config =
        { (Config.with_model model Config.lslp) with Config.name = name }
      in
      Fmt.pr "%-10s %+12d %13.2fx@." name (total_costs config)
        (gmean_speedup config))
    [ ("128-bit", Lslp_costmodel.Model.sse_like);
      ("256-bit", Lslp_costmodel.Model.skylake_avx2) ]

(* 32-bit lanes: the same fused multiply-add kernel in f64 (4 lanes) and
   f32 (8 lanes) — the wider type doubles the work per vector op. *)
let build_fma ~(elt : Lslp_ir.Types.scalar) ~lanes =
  let open Lslp_ir in
  let b =
    Builder.create ~name:"fma"
      ~args:
        [ ("R", Instr.Array_arg elt); ("A", Instr.Array_arg elt);
          ("B", Instr.Array_arg elt); ("C", Instr.Array_arg elt);
          ("i", Instr.Int_arg) ] ()
  in
  for k = 0 to lanes - 1 do
    let idx = Affine.add_const k (Affine.sym ~coeff:lanes "i") in
    let m =
      Builder.binop b Opcode.Fmul
        (Builder.load b ~base:"A" idx)
        (Builder.load b ~base:"B" idx)
    in
    let s = Builder.binop b Opcode.Fadd m (Builder.load b ~base:"C" idx) in
    Builder.store b ~base:"R" idx s
  done;
  Builder.func b

let lane_width () =
  header "Ablation: element width (f64 = 4 lanes vs f32 = 8 lanes @ 256 bit)";
  Fmt.pr "%-8s %8s %12s %14s@." "element" "lanes" "cost" "speedup";
  List.iter
    (fun ((elt : Lslp_ir.Types.scalar), lanes) ->
      let reference = build_fma ~elt ~lanes in
      let f = Lslp_ir.Func.clone reference in
      let report = Pipeline.run ~config:Config.lslp f in
      let o = Lslp_interp.Oracle.compare_runs ~reference ~candidate:f () in
      assert (o.Lslp_interp.Oracle.mismatches = []);
      Fmt.pr "%-8s %8d %+12d %13.2fx@."
        (Fmt.str "%a" Lslp_ir.Types.pp_scalar elt)
        lanes report.Pipeline.total_cost
        (float_of_int o.Lslp_interp.Oracle.reference_cycles
        /. float_of_int o.Lslp_interp.Oracle.candidate_cycles))
    [ (Lslp_ir.Types.F64, 4); (Lslp_ir.Types.F32, 8) ]

(* The reduction-seed extension on vs off. *)
let reductions () =
  header "Ablation: reduction-tree seeds (extension)";
  Fmt.pr "%-14s %12s %14s@." "reductions" "Σ cost" "GMean speedup";
  List.iter
    (fun (name, enabled) ->
      let config =
        { (Config.with_reductions enabled Config.lslp) with Config.name = name }
      in
      Fmt.pr "%-14s %+12d %13.2fx@." name (total_costs config)
        (gmean_speedup config))
    [ ("disabled", false); ("enabled", true) ]

let run_all () =
  score_combine ();
  threshold_sweep ();
  vector_width ();
  lane_width ();
  reductions ()
