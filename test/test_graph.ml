(* Tests for bundles, graph construction and multi-node formation. *)

open Lslp_ir
open Lslp_analysis
open Lslp_core
open Helpers

let classify_in f bundle =
  let deps = Depgraph.build (Func.entry f) in
  Bundle.classify ~deps ~in_graph:(fun _ -> false) bundle

let bundle_tests =
  [
    tc "constants are not instructions" (fun () ->
        let f = kernel "motivation-loads" in
        match classify_in f [| Builder.iconst 1; Builder.iconst 2 |] with
        | Bundle.Rejected Bundle.Not_all_instructions -> ()
        | _ -> Alcotest.fail "expected rejection");
    tc "mixed opcodes rejected" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 i) {
  A[i+0] = (A[i+4] + 1) + 0;
  A[i+1] = (A[i+5] * 2) + 0;
}
|} in
        let adds =
          Helpers.find_all
            (fun i -> Instr.binop i = Some Opcode.Add) (Func.entry f)
        in
        let mul =
          List.hd (Helpers.find_all (fun i -> Instr.binop i = Some Opcode.Mul)
                     (Func.entry f))
        in
        match classify_in f [| Instr.Ins (List.hd adds); Instr.Ins mul |] with
        | Bundle.Rejected Bundle.Not_isomorphic -> ()
        | _ -> Alcotest.fail "expected Not_isomorphic");
    tc "duplicate members rejected" (fun () ->
        let f = kernel "motivation-loads" in
        let ld = List.hd (Helpers.find_all Instr.is_load (Func.entry f)) in
        match classify_in f [| Instr.Ins ld; Instr.Ins ld |] with
        | Bundle.Rejected Bundle.Duplicate_member -> ()
        | _ -> Alcotest.fail "expected Duplicate_member");
    tc "dependent members rejected" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 i) {
  A[i+0] = (A[i+4] + 1) + (A[i+5] + 2);
}
|} in
        let adds =
          Helpers.find_all (fun i -> Instr.binop i = Some Opcode.Add) (Func.entry f)
        in
        (* the root add depends on the two inner adds *)
        let root =
          List.find
            (fun (a : Instr.t) ->
              List.for_all
                (fun v -> match v with Instr.Const _ -> false | _ -> true)
                (Instr.operands a))
            adds
        in
        let inner = List.find (fun a -> not (Instr.equal a root)) adds in
        match classify_in f [| Instr.Ins inner; Instr.Ins root |] with
        | Bundle.Rejected Bundle.Not_schedulable -> ()
        | _ -> Alcotest.fail "expected Not_schedulable");
    tc "non-consecutive loads rejected" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 B[], i64 i) {
  A[i+0] = B[i+0];
  A[i+1] = B[i+2];
}
|} in
        let loads = Helpers.find_all Instr.is_load (Func.entry f) in
        match classify_in f (Bundle.of_insts (Array.of_list loads)) with
        | Bundle.Rejected Bundle.Non_consecutive_loads -> ()
        | _ -> Alcotest.fail "expected Non_consecutive_loads");
    tc "consecutive loads accepted" (fun () ->
        let f = kernel "motivation-loads" in
        let loads =
          Helpers.find_all
            (fun i ->
              match Instr.address i with
              | Some a -> Instr.is_load i && String.equal a.Instr.base "B"
              | None -> false)
            (Func.entry f)
        in
        match classify_in f (Bundle.of_insts (Array.of_list loads)) with
        | Bundle.Vectorizable _ -> ()
        | Bundle.Rejected r -> Alcotest.failf "rejected: %s" (Bundle.reject_to_string r));
    tc "already-claimed members rejected" (fun () ->
        let f = kernel "motivation-loads" in
        let deps = Depgraph.build (Func.entry f) in
        let loads = Helpers.find_all Instr.is_load (Func.entry f) in
        match
          Bundle.classify ~deps ~in_graph:(fun _ -> true)
            (Bundle.of_insts (Array.of_list [ List.hd loads; List.nth loads 1 ]))
        with
        | Bundle.Rejected Bundle.Already_in_graph -> ()
        | _ -> Alcotest.fail "expected Already_in_graph");
    tc "operand_column extracts lanes" (fun () ->
        let f = kernel "motivation-loads" in
        let stores = Helpers.find_all Instr.is_store (Func.entry f) in
        let col =
          Bundle.operand_column (Array.of_list stores) ~index:0
        in
        check_int "two lanes" 2 (Array.length col));
  ]

let seeds_tests =
  [
    tc "adjacent store runs become seeds" (fun () ->
        let f = kernel "motivation-loads" in
        let seeds = Seeds.collect Config.lslp (Func.entry f) in
        check_int "one seed" 1 (List.length seeds);
        check_int "two lanes" 2 (Array.length (List.hd seeds)));
    tc "runs split into power-of-two windows, widest first" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 i) {
  A[i+0] = 0; A[i+1] = 1; A[i+2] = 2; A[i+3] = 3; A[i+4] = 4; A[i+5] = 5;
}
|} in
        let seeds = Seeds.collect Config.lslp (Func.entry f) in
        check (Alcotest.list Alcotest.int) "window sizes" [ 4; 2 ]
          (List.map Array.length seeds));
    tc "gaps break runs" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 i) {
  A[i+0] = 0; A[i+1] = 1; A[i+3] = 3; A[i+4] = 4;
}
|} in
        let seeds = Seeds.collect Config.lslp (Func.entry f) in
        check_int "two seeds" 2 (List.length seeds));
    tc "stores to different arrays are separate" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 B[], i64 i) {
  A[i+0] = 0; B[i+0] = 1; A[i+1] = 2; B[i+1] = 3;
}
|} in
        let seeds = Seeds.collect Config.lslp (Func.entry f) in
        check_int "two seeds" 2 (List.length seeds));
    tc "single store yields no seed" (fun () ->
        let f = compile "kernel k(i64 A[], i64 i) { A[i] = 1; }" in
        check_int "none" 0 (List.length (Seeds.collect Config.lslp (Func.entry f))));
    tc "narrow target caps the window" (fun () ->
        let f = compile {|
kernel k(i64 A[], i64 i) {
  A[i+0] = 0; A[i+1] = 1; A[i+2] = 2; A[i+3] = 3;
}
|} in
        let config = Config.with_model Lslp_costmodel.Model.sse_like Config.lslp in
        let seeds = Seeds.collect config (Func.entry f) in
        check (Alcotest.list Alcotest.int) "2-wide windows" [ 2; 2 ]
          (List.map Array.length seeds));
    tc "max_lanes override caps below target" (fun () ->
        let config = Config.with_max_lanes 2 Config.lslp in
        check_int "capped" 2 (Config.effective_max_lanes config Lslp_ir.Types.I64));
  ]

let build_graph key config =
  let f = kernel key in
  let seed = List.hd (Seeds.collect config (Func.entry f)) in
  Graph_builder.build config (Func.entry f) seed

let multinode_tests =
  [
    tc "figure 4 forms one & multi-node with two internal groups" (fun () ->
        let graph, _root = build_graph "motivation-multi" Config.lslp in
        (* frontier + columns also become (single-group) multi-nodes; the
           associativity fix shows up as the unique 2-group & multi-node *)
        let and_multis =
          List.filter_map
            (fun (n : Graph.node) ->
              match n.Graph.shape with
              | Graph.Multi m when m.Graph.m_op = Opcode.And -> Some m
              | _ -> None)
            (Graph.nodes graph)
        in
        check_int "one & multi-node" 1 (List.length and_multis);
        check_int "two & groups" 2
          (List.length (List.hd and_multis).Graph.m_groups));
    tc "figure 4 multi-node has three operand slots" (fun () ->
        let graph, _ = build_graph "motivation-multi" Config.lslp in
        let multi =
          List.find
            (fun (n : Graph.node) ->
              match n.Graph.shape with
              | Graph.Multi m -> m.Graph.m_op = Opcode.And
              | _ -> false)
            (Graph.nodes graph)
        in
        check_int "slots" 3 (List.length (Graph.children graph multi)));
    tc "multi-node size limit truncates the chain" (fun () ->
        let graph, _ =
          build_graph "motivation-multi" (Config.lslp_multi 1)
        in
        let multi_sizes =
          List.filter_map
            (fun (n : Graph.node) ->
              match n.Graph.shape with
              | Graph.Multi m -> Some (List.length m.Graph.m_groups)
              | _ -> None)
            (Graph.nodes graph)
        in
        List.iter (fun s -> check_int "max 1 group" 1 s) multi_sizes);
    tc "multi-use chain members are not absorbed (escape rule)" (fun () ->
        (* the inner + feeds both the chain and a separate store, so it
           must stay outside the multi-node *)
        let f = compile {|
kernel k(i64 A[], i64 B[], i64 R[], i64 i) {
  i64 t0 = A[i+0] + B[i+0];
  i64 t1 = A[i+1] + B[i+1];
  R[i+0] = t0 + A[i+2];
  R[i+1] = t1 + A[i+3];
  B[i+8] = t0;
}
|} in
        let seed =
          List.find
            (fun (s : Seeds.seed) -> Array.length s = 2)
            (Seeds.collect Config.lslp (Func.entry f))
        in
        let graph, _ = Graph_builder.build Config.lslp (Func.entry f) seed in
        let multis =
          List.filter_map
            (fun (n : Graph.node) ->
              match n.Graph.shape with
              | Graph.Multi m -> Some (List.length m.Graph.m_groups)
              | _ -> None)
            (Graph.nodes graph)
        in
        (* t0 escapes via B[i+8], so no lane may absorb its chain: every
           multi-node stays at one group *)
        List.iter (fun s -> check_int "no coarsening" 1 s) multis);
    tc "non-commutative roots do not form multi-nodes" (fun () ->
        let f = compile {|
kernel k(f64 A[], f64 B[], i64 i) {
  A[i+0] = B[i+0] - 1.0;
  A[i+1] = B[i+1] - 1.0;
}
|} in
        let seed = List.hd (Seeds.collect Config.lslp (Func.entry f)) in
        let graph, _ = Graph_builder.build Config.lslp (Func.entry f) seed in
        check_bool "no multi" true
          (List.for_all
             (fun (n : Graph.node) ->
               match n.Graph.shape with Graph.Multi _ -> false | _ -> true)
             (Graph.nodes graph)));
    tc "lanes with different chain shapes are trimmed to the min" (fun () ->
        (* lane0 has a 3-op fadd chain, lane1 a 1-op chain *)
        let f = compile {|
kernel k(f64 A[], f64 B[], f64 R[], i64 i) {
  R[i+0] = A[i+0] + A[i+2] + A[i+4] + A[i+6];
  R[i+1] = A[i+1] + B[i+0];
}
|} in
        let seed = List.hd (Seeds.collect Config.lslp (Func.entry f)) in
        let graph, _ = Graph_builder.build Config.lslp (Func.entry f) seed in
        let m =
          List.find_map
            (fun (n : Graph.node) ->
              match n.Graph.shape with Graph.Multi m -> Some m | _ -> None)
            (Graph.nodes graph)
        in
        match m with
        | Some m -> check_int "trimmed to 1 group" 1 (List.length m.Graph.m_groups)
        | None -> Alcotest.fail "expected a multi-node");
    tc "diamond columns reuse one node" (fun () ->
        let f = compile {|
kernel k(f64 A[], f64 R[], i64 i) {
  R[i+0] = A[i+0] * A[i+0];
  R[i+1] = A[i+1] * A[i+1];
}
|} in
        let seed = List.hd (Seeds.collect Config.lslp (Func.entry f)) in
        let graph, _ = Graph_builder.build Config.lslp (Func.entry f) seed in
        let loads =
          List.filter
            (fun (n : Graph.node) ->
              match n.Graph.shape with
              | Graph.Group insts -> Instr.is_load insts.(0)
              | _ -> false)
            (Graph.nodes graph)
        in
        check_int "one shared load group" 1 (List.length loads));
    tc "graph claims exactly the vectorizable instructions" (fun () ->
        let graph, _ = build_graph "motivation-loads" Config.lslp in
        (* 2 stores + 2 ands + 4 shls + 4 loads = 12 claimed *)
        let claimed = ref 0 in
        Graph.iter_claimed graph (fun _ -> incr claimed);
        check_int "claimed" 12 !claimed);
    tc "SLP strategy builds plain groups for commutative ops" (fun () ->
        let graph, _ = build_graph "motivation-multi" Config.slp in
        check_bool "no multi-nodes" true
          (List.for_all
             (fun (n : Graph.node) ->
               match n.Graph.shape with Graph.Multi _ -> false | _ -> true)
             (Graph.nodes graph)));
  ]

(* ---- agreement with the pre-arena reference ------------------------- *)

(* The columns one graph build saw: every node's bundle (a diamond reuses
   a node, so its column is one of these) plus every operand column of
   its groups. *)
let graph_columns g =
  List.concat_map
    (fun (n : Graph.node) ->
      let operand_columns insts =
        List.init
          (List.length (Instr.operands insts.(0)))
          (fun index -> Bundle.operand_column insts ~index)
      in
      match n.Graph.shape with
      | Graph.Group insts -> Bundle.of_insts insts :: operand_columns insts
      | Graph.Multi m -> List.map Bundle.of_insts m.Graph.m_groups
      | Graph.Gather vs -> [ vs ])
    (Graph.nodes g)

let verdict_text = function
  | Bundle.Vectorizable insts ->
    "vectorizable "
    ^ String.concat "," (Array.to_list (Array.map (fun (i : Instr.t) ->
        string_of_int i.Instr.id) insts))
  | Bundle.Rejected r -> Bundle.reject_to_string r

let shuffle_text = function
  | None -> "none"
  | Some ((n : Graph.node), lanes) ->
    Fmt.str "#%d %a" n.Graph.nid Fmt.(list ~sep:comma int) lanes

(* Build every seed's graph in [block] under [config]; on each column,
   [Bundle.classify] (with nothing claimed and with the finished graph's
   claims), [Graph.shuffle_pattern] and [Instr.same_opclass] on every lane
   pair must match the reference.  Returns the first disagreement. *)
let block_disagreement config block =
  let deps = Depgraph.build block in
  let seeds = Seeds.collect ~arena:(Depgraph.arena deps) config block in
  List.find_map
    (fun seed ->
      let g, _ = Graph_builder.build ~deps config block seed in
      List.find_map
        (fun (col : Bundle.t) ->
          let verdicts in_graph =
            ( verdict_text (Bundle.classify ~deps ~in_graph col),
              verdict_text (Graph_ref.classify ~deps ~in_graph col) )
          in
          let lanes_agree =
            Array.for_all
              (fun a ->
                Array.for_all
                  (fun b ->
                    match (a, b) with
                    | Instr.Ins x, Instr.Ins y ->
                      Instr.same_opclass x y
                      = (Instr.opclass x = Instr.opclass y)
                    | _ -> true)
                  col)
              col
          in
          let mismatch what (got, want) =
            if String.equal got want then None
            else
              Some
                (Fmt.str "%s on %a: got %s, reference %s" what Bundle.pp col
                   got want)
          in
          match mismatch "classify" (verdicts (fun _ -> false)) with
          | Some _ as m -> m
          | None -> (
            match mismatch "classify (claimed)" (verdicts (Graph.claimed g)) with
            | Some _ as m -> m
            | None -> (
              match
                mismatch "shuffle_pattern"
                  ( shuffle_text (Graph.shuffle_pattern g col),
                    shuffle_text (Graph_ref.shuffle_pattern g col) )
              with
              | Some _ as m -> m
              | None ->
                if lanes_agree then None
                else Some (Fmt.str "same_opclass on %a" Bundle.pp col))))
        (graph_columns g))
    seeds

let agreement_configs = [ Config.slp_nr; Config.slp; Config.lslp ]

let all_opclasses =
  List.map (fun o -> Instr.C_binop o) Opcode.all_binops
  @ List.map (fun o -> Instr.C_unop o) Opcode.all_unops
  @ List.map (fun o -> Instr.C_cmp o) Opcode.all_cmps
  @ List.map (fun o -> Instr.C_reduce o) Opcode.all_binops
  @ Instr.
      [ C_select; C_load; C_store; C_masked_load; C_masked_store; C_splat;
        C_buildvec; C_extract; C_shuffle ]

let agreement_tests =
  [
    tc "equal_opclass agrees with structural equality on every pair"
      (fun () ->
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                if Instr.equal_opclass a b <> (a = b) then
                  Alcotest.failf "equal_opclass %s %s" (Instr.opclass_name a)
                    (Instr.opclass_name b))
              all_opclasses)
          all_opclasses);
    tc "classify and shuffle_pattern = reference: catalog x configs x unroll"
      (fun () ->
        List.iter
          (fun (k : Lslp_kernels.Catalog.kernel) ->
            List.iter
              (fun factor ->
                List.iter
                  (fun (config : Config.t) ->
                    let f = Lslp_kernels.Catalog.compile k in
                    if factor > 1 then
                      ignore (Lslp_frontend.Unroll.run ~factor f);
                    List.iter
                      (fun b ->
                        match block_disagreement config b with
                        | None -> ()
                        | Some m ->
                          Alcotest.failf "%s x%d %s: %s" k.key factor
                            config.Config.name m)
                      (Func.blocks f))
                  agreement_configs)
              [ 1; 4 ])
          Lslp_kernels.Catalog.all);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100
         ~name:"classify and shuffle_pattern = reference on fuzz blocks"
         ~print:(fun (seed, cond_only) ->
           Fmt.str "seed %d cond_only %b" seed cond_only)
         QCheck2.Gen.(pair (int_bound 100_000) bool)
         (fun (seed, cond_only) ->
           let st = Random.State.make [| seed; 0x9a7f |] in
           let f =
             Lslp_fuzz.Gen.build (Lslp_fuzz.Gen.generate ~cond_only st)
           in
           ignore (Lslp_frontend.Unroll.run ~factor:4 f);
           List.for_all
             (fun config ->
               List.for_all
                 (fun b ->
                   match block_disagreement config b with
                   | None -> true
                   | Some m -> QCheck2.Test.fail_report m)
                 (Func.blocks f))
             agreement_configs));
    tc "classify and shuffle_pattern = reference: a block over 256 \
        instructions" (fun () ->
        let f =
          Lslp_fuzz.Gen.build (Helpers.long_chain (Random.State.make [| 7 |]))
        in
        let b = Func.entry f in
        check_bool "over 256 instructions" true (Block.length b > 256);
        List.iter
          (fun config ->
            match block_disagreement config b with
            | None -> ()
            | Some m -> Alcotest.failf "%s: %s" config.Config.name m)
          agreement_configs);
    tc "an instruction codegen makes reads as unclaimed" (fun () ->
        let f =
          Lslp_fuzz.Gen.build (Helpers.long_chain (Random.State.make [| 7 |]))
        in
        let b = Func.entry f in
        let deps = Depgraph.build b in
        let seed =
          match Seeds.collect ~arena:(Depgraph.arena deps) Config.lslp b with
          | seed :: _ -> seed
          | [] -> Alcotest.fail "the chain has no seed"
        in
        let g, _ = Graph_builder.build ~deps Config.lslp b seed in
        let first_new = Lslp_util.Id_gen.peek (Block.ids b) in
        (match Codegen.run ~deps g b with
         | Codegen.Vectorized -> ()
         | Codegen.Not_schedulable | Codegen.Failed _ ->
           Alcotest.fail "the seed did not vectorize");
        let fresh =
          List.filter
            (fun (i : Instr.t) -> i.Instr.id >= first_new)
            (Block.to_list b)
        in
        check_bool "codegen made instructions" true (fresh <> []);
        List.iter
          (fun i ->
            check_bool "unclaimed" false (Graph.claimed g i);
            check_bool "no lane" true (Graph.lane_of g i = None))
          fresh);
  ]

let suite = bundle_tests @ seeds_tests @ multinode_tests @ agreement_tests
