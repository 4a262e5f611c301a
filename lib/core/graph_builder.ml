(* SLP-graph construction (paper Listing 3 / LSLP Listing 4).

   Starting from a seed bundle (consecutive stores), recurse bottom-up
   through operand columns:

   - bundles failing the termination conditions become gather nodes;
   - wide loads are leaves;
   - commutative (and associative) bundles under the LSLP strategy enter
     *coarsening mode*: operand columns with the same opcode whose values do
     not escape are absorbed into the multi-node until the opcode changes, a
     value escapes, or the configured size limit is reached; the collected
     frontier columns are then reordered as one matrix and recursed into
     (*normal mode*);
   - under the SLP / SLP-NR strategies commutative bundles get the vanilla
     (or no) two-operand reorder;
   - everything else recurses in operand order. *)

open Lslp_ir
open Lslp_analysis

type ctx = {
  config : Config.t;
  deps : Depgraph.t;
  arena : Arena.t;  (* the dependence graph's snapshot of the block *)
  uses : Use_info.t;
  graph : Graph.t;
  note : Lslp_check.Remark.note -> unit;
  meter : Lslp_robust.Budget.meter option;
  probe : Lslp_telemetry.Probe.t option;
}

let make_ctx ?(note = fun _ -> ()) ?meter ?probe ?ids ?deps config
    (block : Block.t) =
  (* one arena snapshot serves both analyses; [deps] lets the pipeline
     share the graph it already built for the same un-mutated block *)
  let deps =
    match deps with Some d -> d | None -> Depgraph.build block
  in
  let arena = Depgraph.arena deps in
  {
    config;
    deps;
    arena;
    uses = Use_info.of_arena arena;
    graph = Graph.create ?ids ();
    note;
    meter;
    probe;
  }

let classify ctx (b : Bundle.t) =
  Bundle.classify ~deps:ctx.deps ~in_graph:(Graph.claimed ctx.graph) b

(* Can this operand value be absorbed into a multi-node of opcode [op]?
   It must be the same commutative+associative opcode and must not escape:
   its only use is its place in the chain (the paper's "operands don't
   escape the multi-node" condition — intermediate values of the chain are
   not preserved by the reassociated vector code).  The use count comes
   from the block's arena snapshot, so a counted value is in the block. *)
let absorbable ctx ~op (v : Instr.value) =
  match v with
  | Instr.Ins ({ Instr.kind = Instr.Binop (bop, _, _); _ } as i) ->
    Opcode.equal_binop bop op
    && Opcode.is_commutative bop && Opcode.is_associative bop
    && Use_info.has_single_use ctx.uses i
    && not (Graph.claimed ctx.graph i)
  | Instr.Ins _ | Instr.Const _ | Instr.Arg _ -> false

(* The [n] elements of a list built newest-first, in arrival order. *)
let array_of_rev n l =
  match l with
  | [] -> [||]
  | x :: _ ->
    let a = Array.make n x in
    List.iteri (fun j v -> a.(n - 1 - j) <- v) l;
    a

let rec build_bundle ctx (b : Bundle.t) : Graph.node =
  let key = Graph.bundle_key ctx.graph b in
  match Graph.find_existing ctx.graph key with
  | Some node -> node (* diamond: the exact same column already has a node *)
  | None -> build_bundle_fresh ctx b key

and build_bundle_fresh ctx (b : Bundle.t) key : Graph.node =
  Option.iter Lslp_robust.Budget.spend_node ctx.meter;
  Option.iter
    (fun p ->
      let c = Lslp_telemetry.Probe.counters p in
      c.Lslp_telemetry.Probe.graph_nodes <-
        c.Lslp_telemetry.Probe.graph_nodes + 1)
    ctx.probe;
  let register node =
    Graph.register_bundle ctx.graph key node;
    node
  in
  match classify ctx b with
  | Bundle.Rejected reason ->
    ctx.note
      (Lslp_check.Remark.Column_rejected
         { reason = Bundle.reject_to_string reason; count = 1 });
    register (Graph.add_node ctx.graph (Graph.Gather b))
  | Bundle.Vectorizable insts -> (
    let i0 = insts.(0) in
    match i0.Instr.kind with
    | Instr.Load _ -> register (Graph.add_node ctx.graph (Graph.Group insts))
    | Instr.Store _ ->
      let node = register (Graph.add_node ctx.graph (Graph.Group insts)) in
      let col = Bundle.operand_column insts ~index:0 in
      Graph.set_children ctx.graph node [ build_bundle ctx col ];
      node
    | Instr.Unop _ ->
      let node = register (Graph.add_node ctx.graph (Graph.Group insts)) in
      let col = Bundle.operand_column insts ~index:0 in
      Graph.set_children ctx.graph node [ build_bundle ctx col ];
      node
    | Instr.Binop (op, _, _)
      when Opcode.is_commutative op
           && ctx.config.Config.strategy = Config.Lookahead ->
      register (build_multinode ctx insts op)
    | Instr.Binop (op, _, _) when Opcode.is_commutative op ->
      let node = register (Graph.add_node ctx.graph (Graph.Group insts)) in
      Lslp_robust.Budget.deadline_tick ctx.config.Config.deadline;
      Lslp_robust.Inject.maybe_fail ctx.config.Config.inject
        Lslp_robust.Inject.Reorder;
      let left, right =
        match ctx.config.Config.strategy with
        | Config.Vanilla -> Reorder.vanilla_pair insts
        | Config.No_reorder | Config.Lookahead -> Reorder.no_reorder_pair insts
      in
      Graph.set_children ctx.graph node
        [ build_bundle ctx left; build_bundle ctx right ];
      node
    | Instr.Binop (_, _, _) ->
      let node = register (Graph.add_node ctx.graph (Graph.Group insts)) in
      Graph.set_children ctx.graph node
        [ build_bundle ctx (Bundle.operand_column insts ~index:0);
          build_bundle ctx (Bundle.operand_column insts ~index:1) ];
      node
    | Instr.Cmp _ ->
      (* compares recurse in operand order; swapping operands would flip
         the predicate, which the rebuild does not model *)
      let node = register (Graph.add_node ctx.graph (Graph.Group insts)) in
      Graph.set_children ctx.graph node
        [ build_bundle ctx (Bundle.operand_column insts ~index:0);
          build_bundle ctx (Bundle.operand_column insts ~index:1) ];
      node
    | Instr.Select _ ->
      (* the mask column first, then both value arms; the arms are not
         interchangeable (swapping them negates the mask) *)
      let node = register (Graph.add_node ctx.graph (Graph.Group insts)) in
      Graph.set_children ctx.graph node
        [ build_bundle ctx (Bundle.operand_column insts ~index:0);
          build_bundle ctx (Bundle.operand_column insts ~index:1);
          build_bundle ctx (Bundle.operand_column insts ~index:2) ];
      node
    | Instr.Masked_load _ ->
      (* a leaf for the memory side, but the mask and passthrough columns
         are ordinary operands and recurse *)
      let node = register (Graph.add_node ctx.graph (Graph.Group insts)) in
      Graph.set_children ctx.graph node
        [ build_bundle ctx (Bundle.operand_column insts ~index:0);
          build_bundle ctx (Bundle.operand_column insts ~index:1) ];
      node
    | Instr.Masked_store _ ->
      let node = register (Graph.add_node ctx.graph (Graph.Group insts)) in
      Graph.set_children ctx.graph node
        [ build_bundle ctx (Bundle.operand_column insts ~index:0);
          build_bundle ctx (Bundle.operand_column insts ~index:1) ];
      node
    | Instr.Splat _ | Instr.Buildvec _ | Instr.Extract _ | Instr.Reduce _
    | Instr.Shuffle _ ->
      (* excluded by Bundle.classify (Unsupported_shape) *)
      assert false)

(* Listing 4 / Figure 6: coarsening mode.

   Per lane, absorb the maximal same-opcode single-use chain rooted at that
   lane's instruction (depth-first, operand order), collecting the frontier
   leaves.  Lanes may have differently-shaped chains (the associativity
   mismatch of §3.3); they are trimmed to the smallest per-lane chain size
   so the frontier matrix is rectangular: k chain ops per lane always leave
   exactly k+1 leaves.  The internal ops are bundled lane-wise in discovery
   order — which ops pair up is irrelevant because the vector code is
   regenerated as one fold over the reordered frontier. *)
and build_multinode ctx (root_insts : Instr.t array) (op : Opcode.binop) =
  let config_limit = Config.multinode_limit ctx.config in
  let capped = ref false in
  let collect_lane ?(flag_capped = false) ~limit (root : Instr.t) =
    let ops = ref [ root ] in
    let count = ref 1 in
    let leaves = ref [] in
    let n_leaves = ref 0 in
    (* chain ops are binops: their two operands are visited in place *)
    let rec go (i : Instr.t) =
      match i.Instr.kind with
      | Instr.Binop (_, x, y) ->
        visit x;
        visit y
      | _ -> List.iter visit (Instr.operands i)
    and visit v =
      let can = absorbable ctx ~op v in
      if can && !count < limit then begin
        match v with
        | Instr.Ins child ->
          ops := child :: !ops;
          incr count;
          go child
        | Instr.Const _ | Instr.Arg _ -> assert false
      end
      else begin
        if can && flag_capped && limit < max_int then capped := true;
        leaves := v :: !leaves;
        incr n_leaves
      end
    in
    go root;
    (array_of_rev !count !ops, array_of_rev !n_leaves !leaves)
  in
  let limit = if Opcode.is_associative op then config_limit else 1 in
  let maximal =
    Array.map
      (fun r ->
        collect_lane ~flag_capped:(Opcode.is_associative op) ~limit r)
      root_insts
  in
  let k =
    Array.fold_left
      (fun acc (ops, _) -> min acc (Array.length ops))
      max_int maximal
  in
  let trimmed =
    if Array.for_all (fun (ops, _) -> Array.length ops = k) maximal then
      maximal
    else Array.map (fun r -> collect_lane ~limit:k r) root_insts
  in
  (* lane-wise bundles of internal ops, in discovery order *)
  let m_groups =
    List.init k (fun j -> Array.map (fun (ops, _) -> ops.(j)) trimmed)
  in
  (* frontier matrix: slot s, lane l = l-th lane's s-th leaf *)
  let matrix =
    Array.init (k + 1) (fun s ->
        Array.map (fun (_, leaves) -> leaves.(s)) trimmed)
  in
  if !capped then
    ctx.note (Lslp_check.Remark.Multinode_capped { limit = config_limit });
  let reordered =
    match ctx.config.Config.strategy with
    | Config.Lookahead ->
      Lslp_robust.Budget.deadline_tick ctx.config.Config.deadline;
      Lslp_robust.Inject.maybe_fail ctx.config.Config.inject
        Lslp_robust.Inject.Reorder;
      let m, modes =
        Reorder.reorder_matrix_modes ?meter:ctx.meter ?probe:ctx.probe
          ~arena:ctx.arena ctx.config matrix
      in
      let failed =
        Array.fold_left
          (fun acc mode -> if mode = Reorder.Failed_mode then acc + 1 else acc)
          0 modes
      in
      if failed > 0 then
        ctx.note (Lslp_check.Remark.Operand_mode_failed { slots = failed });
      m
    | Config.Vanilla | Config.No_reorder -> matrix
  in
  let node =
    Graph.add_node ctx.graph (Graph.Multi { Graph.m_op = op; m_groups })
  in
  Graph.set_children ctx.graph node
    (List.map (build_bundle ctx) (Array.to_list reordered));
  node

(* Replay the finished graph into a tracing probe as Graph_* events: node
   shapes with per-lane scalars, operand edges with slot numbers, and the
   Depgraph dependence overlay lifted to node level (direct operand edges
   elided so the overlay only shows the constraints the tree doesn't).  The
   DOT exporter reconstructs Fig. 6/7 diagrams from these events alone. *)
let record_graph ctx ~desc =
  match ctx.probe with
  | Some p when Lslp_telemetry.Probe.tracing p ->
    let record = Lslp_telemetry.Probe.record p in
    let gid = Lslp_telemetry.Probe.fresh_gid p in
    record (Lslp_trace.Trace.Graph_start { gid; seed = desc () });
    let nodes = Graph.nodes ctx.graph in
    let lane_text v = Fmt.str "%a" Printer.pp_value v in
    let inst_text (i : Instr.t) = lane_text (Instr.Ins i) in
    List.iter
      (fun (n : Graph.node) ->
        let kind, bundles =
          match n.Graph.shape with
          | Graph.Group insts ->
            ( Lslp_trace.Trace.Knode_group
                (Instr.opclass_name (Instr.opclass insts.(0))),
              [ Array.to_list (Array.map inst_text insts) ] )
          | Graph.Multi { Graph.m_op; m_groups } ->
            ( Lslp_trace.Trace.Knode_multi (Opcode.binop_name m_op),
              List.map
                (fun g -> Array.to_list (Array.map inst_text g))
                m_groups )
          | Graph.Gather values ->
            ( Lslp_trace.Trace.Knode_gather,
              [ Array.to_list (Array.map lane_text values) ] )
        in
        record
          (Lslp_trace.Trace.Graph_node
             { gid; nid = n.Graph.nid; kind; bundles }))
      nodes;
    let child_pairs = Lslp_util.Key_table.create 16 in
    let pair_key a b = [| a; b |] in
    List.iter
      (fun (n : Graph.node) ->
        List.iteri
          (fun slot (c : Graph.node) ->
            Lslp_util.Key_table.set child_pairs
              (pair_key n.Graph.nid c.Graph.nid) 1;
            record
              (Lslp_trace.Trace.Graph_edge
                 { gid; parent = n.Graph.nid; child = c.Graph.nid; slot }))
          (Graph.children ctx.graph n))
      nodes;
    let insts_of (n : Graph.node) =
      match n.Graph.shape with
      | Graph.Group insts -> Array.to_list insts
      | Graph.Multi { Graph.m_groups; _ } ->
        List.concat_map Array.to_list m_groups
      | Graph.Gather _ -> []
    in
    List.iter
      (fun (a : Graph.node) ->
        List.iter
          (fun (b : Graph.node) ->
            if
              a.Graph.nid <> b.Graph.nid
              && (not
                    (Lslp_util.Key_table.mem child_pairs
                       (pair_key a.Graph.nid b.Graph.nid)))
              && List.exists
                   (fun ia ->
                     List.exists
                       (fun ib -> Depgraph.depends ctx.deps ia ~on:ib)
                       (insts_of b))
                   (insts_of a)
            then
              record
                (Lslp_trace.Trace.Dep_edge
                   { gid; src = a.Graph.nid; dst = b.Graph.nid }))
          nodes)
      nodes
  | Some _ | None -> ()

let build ?note ?meter ?probe ?ids ?deps config (block : Block.t)
    (seed : Instr.t array) =
  let ctx = make_ctx ?note ?meter ?probe ?ids ?deps config block in
  let root = build_bundle ctx (Bundle.of_insts seed) in
  (* [desc] is a thunk so the Fmt/Affine pretty-print only runs when the
     probe is tracing *)
  record_graph ctx ~desc:(fun () -> Seeds.describe seed);
  (ctx.graph, root)

(* Entry point for reduction vectorization: build one node per leaf chunk
   within a single shared graph (so diamonds across chunks still reuse). *)
let build_columns ?note ?meter ?probe ?ids ?deps ?(desc = "reduction")
    config (block : Block.t) (columns : Bundle.t list) =
  let ctx = make_ctx ?note ?meter ?probe ?ids ?deps config block in
  let nodes = List.map (build_bundle ctx) columns in
  record_graph ctx ~desc:(fun () -> desc);
  (ctx.graph, nodes)
