(* Cost evaluation of an SLP graph (paper §2.2 step 4).

   cost(graph) = Σ over vectorizable bundles of (vector_cost - Σ scalar
   costs) + Σ over gather nodes of their aggregation cost + one extract per
   vectorized value that still has scalar (external) users.

   Negative totals mean the vector code is cheaper; code generation proceeds
   iff total < threshold (usually 0).

   One pass over the node slots: each gather's shuffle test runs once and
   serves both its own cost and the extracts it implies, external users
   are found by a short-circuit walk of the arena's use lists, and a
   node's description text is only built when a report asks for it. *)

open Lslp_ir

type node_kind =
  | Vector_bundle of Instr.t array
  | Multi_bundle of Instr.t array
  | Shuffle_lanes of int
  | Gather_lanes of int

type node_cost = {
  nid : int;
  kind : node_kind;
  cost : int;
}

type summary = {
  per_node : node_cost list;
  extract_cost : int;
  total : int;
}

let bundle_cost model (insts : Instr.t array) =
  let lanes = Array.length insts in
  let vector = Lslp_costmodel.Model.vector_group_cost model insts.(0) ~lanes in
  let scalars =
    Array.fold_left
      (fun acc i -> acc + Lslp_costmodel.Model.scalar_instr_cost model i)
      0 insts
  in
  vector - scalars

let describe_bundle (insts : Instr.t array) =
  Instr.opclass_name (Instr.opclass insts.(0))
  ^ " x"
  ^ string_of_int (Array.length insts)

let description nc =
  match nc.kind with
  | Vector_bundle insts -> describe_bundle insts
  | Multi_bundle insts -> "multi:" ^ describe_bundle insts
  | Shuffle_lanes n -> "shuffle x" ^ string_of_int n
  | Gather_lanes n -> "gather x" ^ string_of_int n

let evaluate ?(ignore_users = fun (_ : Instr.t) -> false) ?uses
    (config : Config.t) (graph : Graph.t) (block : Block.t) : summary =
  let model = config.Config.model in
  let per_node = ref [] in
  let note nid kind cost = per_node := { nid; kind; cost } :: !per_node in
  (* extract cost: vectorized values that still need a scalar copy — either
     they have scalar users outside the graph, or they appear inside a
     gather column (code generation materializes those lanes with extracts) *)
  let needs_extract = Lslp_util.Int_table.create 16 in
  for slot = 0 to Graph.node_count graph - 1 do
    let n = Graph.node_of_slot graph slot in
    match n.Graph.shape with
    | Graph.Group insts ->
      note n.Graph.nid (Vector_bundle insts) (bundle_cost model insts)
    | Graph.Multi m ->
      List.iter
        (fun insts ->
          note n.Graph.nid (Multi_bundle insts) (bundle_cost model insts))
        m.Graph.m_groups
    | Graph.Gather vs -> (
      match Graph.shuffle_pattern graph vs with
      | Some _ ->
        (* a pure permutation of one vector value: a single shuffle *)
        note n.Graph.nid
          (Shuffle_lanes (Array.length vs))
          model.Lslp_costmodel.Model.shuffle
      | None ->
        note n.Graph.nid
          (Gather_lanes (Array.length vs))
          (Lslp_costmodel.Model.gather_cost_lanes model vs);
        Array.iter
          (fun v ->
            match v with
            | Instr.Ins i when Graph.claimed graph i ->
              Lslp_util.Int_table.set needs_extract i.Instr.id 1
            | Instr.Ins _ | Instr.Const _ | Instr.Arg _ -> ())
          vs)
  done;
  let arena =
    Use_info.arena
      (match uses with Some u -> u | None -> Use_info.compute block)
  in
  let outside u =
    let u = Arena.instr arena u in
    not (Graph.claimed graph u || ignore_users u)
  in
  Graph.iter_claimed graph (fun (i : Instr.t) ->
      let k = Arena.idx arena i in
      if k >= 0 && Arena.exists_user arena k outside then
        Lslp_util.Int_table.set needs_extract i.Instr.id 1);
  let extract_cost =
    Lslp_util.Int_table.length needs_extract
    * model.Lslp_costmodel.Model.extract_element
  in
  let total =
    List.fold_left (fun acc nc -> acc + nc.cost) extract_cost !per_node
  in
  { per_node = List.rev !per_node; extract_cost; total }

let profitable config summary = summary.total < config.Config.threshold

let pp_summary ppf s =
  List.iter
    (fun nc ->
      Fmt.pf ppf "  node#%d %-14s %+d@." nc.nid (description nc) nc.cost)
    s.per_node;
  if s.extract_cost <> 0 then Fmt.pf ppf "  extracts       %+d@." s.extract_cost;
  Fmt.pf ppf "  total          %+d" s.total
