(* Horizontal-reduction vectorization.

   The paper lists reduction trees among the seed idioms of bottom-up SLP
   (§2.2: "instructions that lead to idioms such as reduction trees").  A
   chain x1 ⊕ x2 ⊕ ... ⊕ xn of one commutative+associative opcode whose
   intermediate values do not escape is rewritten, when profitable, as

     W-wide chunks of leaves  →  element-wise ⊕ of the chunk vectors
                              →  one horizontal Reduce
                              →  scalar ⊕ of any leftover leaves.

   Leaf chunks are built through the regular graph machinery, so they get
   the full treatment: wide loads, nested groups, gathers, diamond reuse. *)

open Lslp_ir

type candidate = {
  cand_op : Opcode.binop;
  cand_root : Instr.t;
  cand_chain : Instr.t list;   (* chain ops, root first *)
  cand_leaves : Instr.value list;
}

let describe c =
  "reduce " ^ Opcode.binop_name c.cand_op ^ " x"
  ^ string_of_int (List.length c.cand_leaves)

(* Chain roots: scalar commutative+associative ops that are not themselves
   absorbed into a parent chain of the same opcode (multi-use values are
   roots of their own chains; their parents treat them as leaves).  A
   vector-typed chain is the fold the store-seed pass's codegen emitted
   for a multi-node (paper §4.2): its leaves are already vectors, so it
   is no reduction tree of the input and no plan for it can be emitted. *)
let collect_candidates ?uses (block : Block.t) : candidate list =
  let uses =
    match uses with Some u -> u | None -> Use_info.compute block
  in
  let absorbable ~op (v : Instr.value) =
    match v with
    | Instr.Ins i ->
      Instr.binop i = Some op && Use_info.has_single_use uses i
    | Instr.Const _ | Instr.Arg _ -> false
  in
  let is_root (i : Instr.t) =
    match Instr.binop i with
    | Some op
      when Opcode.is_commutative op && Opcode.is_associative op
           && not (Types.is_vector i.Instr.ty) ->
      let users = Use_info.users uses i in
      (* not absorbed by a same-op parent *)
      not
        (Use_info.has_single_use uses i
         && List.exists (fun (u : Instr.t) -> Instr.binop u = Some op) users)
    | Some _ | None -> false
  in
  Block.fold
    (fun acc root ->
      if not (is_root root) then acc
      else
        let op = Option.get (Instr.binop root) in
        let chain = ref [ root ] in
        let leaves = ref [] in
        let rec go (i : Instr.t) =
          List.iter
            (fun v ->
              if absorbable ~op v then begin
                match v with
                | Instr.Ins child ->
                  chain := child :: !chain;
                  go child
                | Instr.Const _ | Instr.Arg _ -> assert false
              end
              else leaves := v :: !leaves)
            (Instr.operands i)
        in
        go root;
        if List.length !chain < 2 then acc (* a lone op is not a chain *)
        else
          {
            cand_op = op;
            cand_root = root;
            cand_chain = List.rev !chain;
            cand_leaves = List.rev !leaves;
          }
          :: acc)
    [] block
  |> List.rev

(* Chunk the leaves into W-wide bundles (in order) plus a scalar tail. *)
let chunk_leaves ~lanes leaves =
  let rec go acc current n = function
    | [] ->
      let tail = List.rev current in
      (List.rev acc, tail)
    | v :: rest ->
      if n + 1 = lanes then
        go (Array.of_list (List.rev (v :: current)) :: acc) [] 0 rest
      else go acc (v :: current) (n + 1) rest
  in
  go [] [] 0 leaves

type plan = {
  graph : Graph.t;
  reduction : Codegen.reduction;
  cost : int;
  lanes : int;
}

(* Net cost of vectorizing one candidate (negative = profitable):
   graph nodes (chunk trees and their gathers/extracts) + (chunks-1)
   element-wise vector ops + the horizontal reduce + tail scalar ops,
   minus the removed scalar chain ops. *)
let plan_candidate ?meter ?probe ?ids ~deps ~desc
    (config : Config.t) (block : Block.t) (c : candidate) : plan option =
  let model = config.Config.model in
  let elt =
    match Types.scalar_of c.cand_root.Instr.ty with
    | Some s -> s
    | None -> Types.F64
  in
  let lanes = Config.effective_max_lanes config elt in
  if List.length c.cand_leaves < lanes then None
  else begin
    let chunks, tail = chunk_leaves ~lanes c.cand_leaves in
    let deps = Lazy.force deps in
    let graph, chunk_nodes =
      Graph_builder.build_columns ?meter ?probe ?ids ~deps ~desc
        config block chunks
    in
    let in_chain (u : Instr.t) =
      List.exists (fun (ci : Instr.t) -> Instr.equal ci u) c.cand_chain
    in
    let uses = Use_info.of_arena (Lslp_analysis.Depgraph.arena deps) in
    let summary =
      Cost.evaluate ~ignore_users:in_chain ~uses config graph block
    in
    let op_costs = model.Lslp_costmodel.Model.binop_cost c.cand_op in
    let combine_cost = (List.length chunks - 1) * op_costs.vector lanes in
    let reduce_cost = model.Lslp_costmodel.Model.horizontal_reduce lanes in
    let tail_cost = List.length tail * op_costs.scalar in
    let removed_chain =
      List.length c.cand_chain * op_costs.scalar
    in
    let cost =
      summary.Cost.total + combine_cost + reduce_cost + tail_cost
      - removed_chain
    in
    Some
      {
        graph;
        reduction =
          {
            Codegen.red_op = c.cand_op;
            red_root = c.cand_root;
            red_chain = c.cand_chain;
            red_chunks = chunk_nodes;
            red_remainder = tail;
          };
        cost;
        lanes;
      }
  end

type region = {
  root_desc : string;
  lanes : int;
  cost : int;
  vectorized : bool;
  not_schedulable : bool;
}

(* Vectorize every profitable reduction in one block, in program order.
   Returns one region record per candidate considered. *)
let run ?(config = Config.lslp) ?meter ?probe ?ids ?record
    ?(on_skipped = fun _ -> ()) ?arena (block : Block.t) : region list =
  let regions = ref [] in
  let continue_ = ref true in
  let consumed = Lslp_util.Int_table.create 16 in
  (* one arena snapshot per block *state*: candidate collection, chunk-graph
     build, cost and codegen all read the same frozen block, and the
     snapshot survives across iterations until a reduction actually rewrites
     the block (rejected or unschedulable candidates leave it untouched).
     The caller may hand over a snapshot it already built for this state.
     What is derived from the snapshot lives exactly as long: the
     candidates not yet planned, collected once, and the dependence graph,
     built when the first candidate is planned. *)
  let snapshot arena =
    let pending =
      List.filter
        (fun c ->
          not (Lslp_util.Int_table.mem consumed c.cand_root.Instr.id))
        (collect_candidates ~uses:(Use_info.of_arena arena) block)
    in
    (pending, lazy (Lslp_analysis.Depgraph.build_arena arena))
  in
  let cur = ref (Option.map snapshot arena) in
  while !continue_ do
    continue_ := false;
    let pending, deps =
      match !cur with
      | Some s -> s
      | None -> snapshot (Arena.of_block block)
    in
    match pending with
    | [] -> ()
    | c :: rest -> (
      cur := Some (rest, deps);
      Lslp_util.Int_table.set consumed c.cand_root.Instr.id 1;
      continue_ := true;
      Option.iter Lslp_robust.Budget.spend_step meter;
      let desc = describe c in
      match
        plan_candidate ?meter ?probe ?ids ~deps ~desc config block c
      with
      | None -> on_skipped c
      | Some plan ->
        let accepted = plan.cost < config.Config.threshold in
        let tracer =
          match probe with
          | Some p when Lslp_telemetry.Probe.tracing p -> Some p
          | Some _ | None -> None
        in
        Option.iter
          (fun p ->
            Lslp_telemetry.Probe.record p
              (Lslp_trace.Trace.Cost_computed
                 {
                   seed = desc;
                   nodes = List.length (Graph.nodes plan.graph);
                   total = plan.cost;
                   threshold = config.Config.threshold;
                   accepted;
                 }))
          tracer;
        let outcome_event outcome =
          Option.iter
            (fun p ->
              Lslp_telemetry.Probe.record p
                (Lslp_trace.Trace.Region_outcome
                   { seed = desc; lanes = plan.lanes; outcome;
                     cost = Some plan.cost }))
            tracer
        in
        if accepted then begin
          Lslp_robust.Budget.deadline_tick config.Config.deadline;
          Lslp_robust.Inject.maybe_fail config.Config.inject
            Lslp_robust.Inject.Reduction;
          match
            Codegen.run ~reduction:plan.reduction ?record ?probe
              ~deps:(Lazy.force deps) plan.graph block
          with
          | Codegen.Vectorized ->
            cur := None;
            outcome_event "vectorized";
            regions :=
              { root_desc = desc; lanes = plan.lanes; cost = plan.cost;
                vectorized = true; not_schedulable = false }
              :: !regions
          | Codegen.Not_schedulable ->
            outcome_event "not-schedulable";
            regions :=
              { root_desc = desc; lanes = plan.lanes; cost = plan.cost;
                vectorized = false; not_schedulable = true }
              :: !regions
          | Codegen.Failed msg ->
            (* the block may be half-rewritten; abort the transaction the
               caller wrapped around us so it rolls the region back *)
            raise
              (Lslp_robust.Transact.Check_failed
                 { pass = "reduction-codegen"; error = msg })
        end
        else begin
          outcome_event "rejected-cost";
          regions :=
            { root_desc = desc; lanes = plan.lanes; cost = plan.cost;
              vectorized = false; not_schedulable = false }
            :: !regions
        end)
  done;
  List.rev !regions
