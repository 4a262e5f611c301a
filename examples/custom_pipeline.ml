(* Driving the library below the Pipeline facade.

   This example builds IR directly with the Builder API (no kernel-language
   source involved), then runs each pass stage by hand: seed collection,
   graph construction, cost evaluation, code generation, DCE — printing the
   intermediate artifacts.  This is the integration surface a downstream
   compiler would use to embed LSLP as a pass.

   Run with:  dune exec examples/custom_pipeline.exe *)

open Lslp_ir
open Lslp_core

(* Build the paper's Figure 2 example by hand:
     A[i+0] = (B[i+0] << 1) & (C[i+0] << 2)
     A[i+1] = (C[i+1] << 3) & (B[i+1] << 4)   *)
let build_figure2 () =
  let b =
    Builder.create ~name:"figure2"
      ~args:
        [ ("A", Instr.Array_arg Types.I64); ("B", Instr.Array_arg Types.I64);
          ("C", Instr.Array_arg Types.I64); ("i", Instr.Int_arg) ] ()
  in
  let lane0 =
    let ld_b = Builder.load b ~base:"B" (Builder.idx 0) in
    let ld_c = Builder.load b ~base:"C" (Builder.idx 0) in
    let shl1 = Builder.binop b Opcode.Shl ld_b (Builder.iconst 1) in
    let shl2 = Builder.binop b Opcode.Shl ld_c (Builder.iconst 2) in
    Builder.binop b Opcode.And shl1 shl2
  in
  Builder.store b ~base:"A" (Builder.idx 0) lane0;
  let lane1 =
    let ld_c = Builder.load b ~base:"C" (Builder.idx 1) in
    let ld_b = Builder.load b ~base:"B" (Builder.idx 1) in
    let shl3 = Builder.binop b Opcode.Shl ld_c (Builder.iconst 3) in
    let shl4 = Builder.binop b Opcode.Shl ld_b (Builder.iconst 4) in
    Builder.binop b Opcode.And shl3 shl4
  in
  Builder.store b ~base:"A" (Builder.idx 1) lane1;
  Builder.func b

let () =
  let f = build_figure2 () in
  Verifier.verify_exn f;
  Fmt.pr "=== hand-built IR ===@.%a@.@." Printer.pp_func f;

  let config = Config.lslp in

  (* Stage 1: seed discovery — runs of adjacent stores. *)
  let seeds = Seeds.collect config (Func.entry f) in
  Fmt.pr "found %d seed group(s)@." (List.length seeds);
  let seed = List.hd seeds in

  (* Stage 2: graph construction (multi-nodes + look-ahead reordering). *)
  let graph, root = Graph_builder.build config (Func.entry f) seed in
  Fmt.pr "@.=== LSLP graph ===@.%a@.@." (Graph.pp_node graph) root;

  (* Stage 3: cost evaluation against the TTI-style model. *)
  let cost = Cost.evaluate config graph (Func.entry f) in
  Fmt.pr "=== cost ===@.%a@.@." Cost.pp_summary cost;
  assert (Cost.profitable config cost);

  (* Stage 4: code generation + cleanup. *)
  (match Codegen.run graph (Func.entry f) with
   | Codegen.Vectorized -> ()
   | Codegen.Not_schedulable -> failwith "unexpectedly unschedulable"
   | Codegen.Failed msg -> failwith ("codegen failed: " ^ msg));
  Verifier.verify_exn f;
  Fmt.pr "=== vectorized IR ===@.%a@.@." Printer.pp_func f;

  (* The same stages are also exercised by custom configurations, e.g. a
     128-bit target with a shallow look-ahead: *)
  let narrow =
    Config.lslp_la 2
    |> Config.with_model Lslp_costmodel.Model.sse_like
    |> Config.with_threshold 1
  in
  let g = build_figure2 () in
  let report = Pipeline.run ~config:narrow g in
  Fmt.pr "=== %s on a 128-bit target ===@.%a@."
    narrow.Config.name Pipeline.pp_report report
