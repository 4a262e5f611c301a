(* Test-only reference: bundle classification and the shuffle test as they
   stood before graph build read the arena — option arrays and address
   lists in [classify], [Addr.consecutive_run] for memory adjacency, a
   list of positions for independence, and [Graph.lane_of] per lane for
   [shuffle_pattern].  [test_graph] holds the production [Bundle] and
   [Graph] to them on every column the builder sees. *)

open Lslp_ir
open Lslp_analysis
open Lslp_core

let instructions (b : Bundle.t) : Instr.t array option =
  let insts =
    Array.map
      (fun v ->
        match v with
        | Instr.Ins i -> Some i
        | Instr.Const _ | Instr.Arg _ -> None)
      b
  in
  if Array.for_all Option.is_some insts then Some (Array.map Option.get insts)
  else None

let all_same_opclass insts =
  let c0 = Instr.opclass insts.(0) in
  Array.for_all (fun i -> Instr.opclass i = c0) insts

let has_duplicates insts =
  let n = Array.length insts in
  let dup = ref false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Instr.equal insts.(i) insts.(j) then dup := true
    done
  done;
  !dup

let loads_consecutive insts =
  let addrs = Array.to_list insts |> List.filter_map Instr.address in
  List.length addrs = Array.length insts && Addr.consecutive_run addrs

let widenable (i : Instr.t) =
  match i.kind with
  | Instr.Binop _ | Instr.Unop _ | Instr.Load _ | Instr.Store _
  | Instr.Cmp _ | Instr.Select _ | Instr.Masked_load _
  | Instr.Masked_store _ ->
    not (Types.is_vector i.ty)
  | Instr.Splat _ | Instr.Buildvec _ | Instr.Extract _ | Instr.Reduce _
  | Instr.Shuffle _ -> false

(* "Same block" scans the block the dependence graph was built on. *)
let classify ~(deps : Depgraph.t) ~(in_graph : Instr.t -> bool) (b : Bundle.t)
    : Bundle.verdict =
  let block = Arena.block (Depgraph.arena deps) in
  match instructions b with
  | None -> Bundle.Rejected Bundle.Not_all_instructions
  | Some insts ->
    if not (Array.for_all widenable insts) then
      Bundle.Rejected Bundle.Unsupported_shape
    else if not (all_same_opclass insts) then
      Bundle.Rejected Bundle.Not_isomorphic
    else if has_duplicates insts then Bundle.Rejected Bundle.Duplicate_member
    else if not (Array.for_all (Block.mem block) insts) then
      Bundle.Rejected Bundle.Different_block
    else if Array.exists in_graph insts then
      Bundle.Rejected Bundle.Already_in_graph
    else if not (Depgraph.independent deps (Array.to_list insts)) then
      Bundle.Rejected Bundle.Not_schedulable
    else if Instr.is_load insts.(0) && not (loads_consecutive insts) then
      Bundle.Rejected Bundle.Non_consecutive_loads
    else if Instr.is_store insts.(0) && not (loads_consecutive insts) then
      Bundle.Rejected Bundle.Non_consecutive_loads
    else Bundle.Vectorizable insts

let shuffle_pattern g (values : Instr.value array) :
    (Graph.node * int list) option =
  let lanes =
    Array.map
      (fun v ->
        match v with
        | Instr.Ins i -> Graph.lane_of g i
        | Instr.Const _ | Instr.Arg _ -> None)
      values
  in
  if Array.for_all Option.is_some lanes then
    match Array.to_list lanes with
    | Some ((n0 : Graph.node), _) :: _ as all
      when List.for_all
             (function
               | Some ((n : Graph.node), _) -> n.Graph.nid = n0.Graph.nid
               | None -> false)
             all ->
      Some (n0, List.map (function Some (_, l) -> l | None -> 0) all)
    | _ -> None
  else None
