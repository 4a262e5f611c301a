(* The SLP graph: the core data structure of the algorithm (paper §2.2-2.3).

   Nodes are either vectorizable groups (one scalar instruction per lane),
   multi-nodes (a chain of same-opcode commutative groups, LSLP's §4.2
   extension), or gathers (operand columns that could not be vectorized and
   must be assembled lane by lane).  Children are operand columns, in
   operand order after any reordering.

   Representation: nodes live in a growable slot-indexed array and edges
   are int arrays of child slots; instruction claims are an int array over
   the builder's arena, indexed by [Arena.idx], with the (slot, lane) pair
   packed into one word (an instruction outside the arena reads as
   unclaimed); bundle identity (diamond reuse) is an int-array key — tag
   and payload words per lane — in a [Key_table] instead of a
   `Fmt.str`-built string.  The [nid] shown in traces and DOT
   output still comes from the per-run [Id_gen]; slots are graph-local and
   never printed. *)

open Lslp_ir
module Key_table = Lslp_util.Key_table

type node = {
  nid : int;   (* run-unique display id *)
  slot : int;  (* graph-local dense index *)
  shape : shape;
}

and shape =
  | Group of Instr.t array
    (* one vectorizable bundle; children = operand columns (loads: none,
       stores: the stored-value column) *)
  | Multi of multi
    (* a multi-node; children = the reordered frontier operand columns *)
  | Gather of Instr.value array
    (* non-vectorizable column: assembled with buildvec/splat/constant *)

and multi = {
  m_op : Opcode.binop;
  m_groups : Instr.t array list;  (* internal group bundles, root first *)
}

type t = {
  mutable root : node option;
  mutable node_arr : node array;       (* slot -> node, creation order *)
  mutable n_nodes : int;
  mutable child_arr : int array array; (* slot -> child slots *)
  arena : Arena.t;                     (* the block the claims index *)
  claims : int array;  (* compact index -> (slot lsl 8) lor (lane+1) | -1 *)
  by_bundle : Key_table.t;             (* bundle key -> slot *)
  names : Cse.names;                   (* arg names appearing in bundle keys *)
  ids : Lslp_util.Id_gen.t;
  (* node-id source.  The pipeline threads one generator through every
     graph of a run so nids stay unique run-wide (the DOT exporter names
     nodes [n<nid>] across subgraph clusters); standalone builds get a
     fresh one.  Per-run rather than process-global so concurrent domains
     number their graphs deterministically. *)
}

let dummy_node = { nid = -1; slot = -1; shape = Gather [||] }

let create ?ids arena =
  let ids =
    match ids with Some g -> g | None -> Lslp_util.Id_gen.create ~first:1 ()
  in
  {
    root = None;
    node_arr = Array.make 16 dummy_node;
    n_nodes = 0;
    child_arr = Array.make 16 [||];
    arena;
    claims = Array.make (Arena.size arena) (-1);
    by_bundle = Key_table.create 32;
    names = Cse.names ();
    ids;
  }

(* Key identifying a bundle by the exact per-lane values, used to reuse a
   node when the same column reappears (shared sub-expressions form diamonds
   in the use-def DAG; LLVM's SLP reuses the tree entry the same way).
   Each lane is CSE's two-word value key.  Built once per column: the
   builder looks the column up and registers its node under the same
   key. *)
type key = int array

let bundle_key g (values : Instr.value array) =
  let k = Array.make (2 * Array.length values) 0 in
  Array.iteri (fun j v -> Cse.put_value g.names k (2 * j) v) values;
  k

let find_existing g (key : key) =
  match Key_table.get g.by_bundle key ~absent:(-1) with
  | -1 -> None
  | slot -> Some g.node_arr.(slot)

let register_bundle g (key : key) node = Key_table.set g.by_bundle key node.slot

let grow g =
  let cap = Array.length g.node_arr in
  if g.n_nodes >= cap then begin
    let nodes' = Array.make (2 * cap) dummy_node in
    Array.blit g.node_arr 0 nodes' 0 cap;
    g.node_arr <- nodes';
    let children' = Array.make (2 * cap) [||] in
    Array.blit g.child_arr 0 children' 0 cap;
    g.child_arr <- children'
  end

(* Bundles are classified against the same arena: every member is in it. *)
let claim g (i : Instr.t) slot lane =
  g.claims.(Arena.idx g.arena i) <-
    (slot lsl 8) lor (match lane with Some l -> l + 1 | None -> 0)

let add_node g shape =
  grow g;
  let slot = g.n_nodes in
  let n = { nid = Lslp_util.Id_gen.next g.ids; slot; shape } in
  g.node_arr.(slot) <- n;
  g.n_nodes <- slot + 1;
  if Option.is_none g.root then g.root <- Some n;
  (match shape with
   | Group insts ->
     Array.iteri (fun lane i -> claim g i slot (Some lane)) insts
   | Multi m ->
     List.iteri
       (fun j insts ->
         Array.iteri
           (fun lane i ->
             (* only the root bundle's members are lanes of the folded
                vector value; internals are reassociated away *)
             let lane = if j = 0 then Some lane else None in
             claim g i slot lane)
           insts)
       m.m_groups
   | Gather _ -> ());
  n

let claim_of g (i : Instr.t) =
  let k = Arena.idx g.arena i in
  if k < 0 then -1 else g.claims.(k)

let claimed g i = claim_of g i >= 0

let iter_claimed g f =
  for k = 0 to Array.length g.claims - 1 do
    if g.claims.(k) >= 0 then f (Arena.instr g.arena k)
  done

let set_children g (n : node) kids =
  g.child_arr.(n.slot) <- Array.of_list (List.map (fun c -> c.slot) kids)

let children g (n : node) =
  Array.to_list (Array.map (fun s -> g.node_arr.(s)) g.child_arr.(n.slot))

let child_slots g (n : node) = g.child_arr.(n.slot)
let node_of_slot g slot = g.node_arr.(slot)

let lane_of g (i : Instr.t) =
  match claim_of g i with
  | -1 -> None
  | packed ->
    let lane = packed land 0xff in
    if lane = 0 then None
    else Some (g.node_arr.(packed lsr 8), lane - 1)

(* A gather column that is a pure permutation of one vectorized node's
   lanes can be emitted as a single shuffle instead of extracts+inserts.
   Every lane must carry a claim word with a lane (multi-node internals
   have none) naming the same node slot; the claim words are read in
   place, and the lane list is built only for a match. *)
let claim_word g (v : Instr.value) =
  match v with
  | Instr.Ins i -> claim_of g i
  | Instr.Const _ | Instr.Arg _ -> -1

(* Lanes [j ..] all carry a lane-bearing claim on node [slot]. *)
let rec same_node g (values : Instr.value array) slot j =
  j >= Array.length values
  ||
  let p = claim_word g values.(j) in
  p >= 0 && p land 0xff <> 0 && p lsr 8 = slot && same_node g values slot (j + 1)

let shuffle_pattern g (values : Instr.value array) :
    (node * int list) option =
  let n = Array.length values in
  if n = 0 then None
  else
    let p0 = claim_word g values.(0) in
    if p0 < 0 || p0 land 0xff = 0 || not (same_node g values (p0 lsr 8) 1)
    then None
    else
      Some
        ( g.node_arr.(p0 lsr 8),
          List.init n (fun j -> (claim_word g values.(j) land 0xff) - 1) )

let node_count g = g.n_nodes

let nodes g =
  let rec go k acc = if k < 0 then acc else go (k - 1) (g.node_arr.(k) :: acc) in
  go (g.n_nodes - 1) []

let lanes_of_node n =
  match n.shape with
  | Group insts -> Array.length insts
  | Multi m ->
    (match m.m_groups with
     | g0 :: _ -> Array.length g0
     | [] -> 0)
  | Gather vs -> Array.length vs

let rec pp_node g ppf n =
  let pp_insts ppf insts =
    Fmt.pf ppf "[%a]"
      Fmt.(array ~sep:comma (fun ppf i -> Printer.pp_value ppf (Instr.Ins i)))
      insts
  in
  match n.shape with
  | Group insts ->
    Fmt.pf ppf "@[<v 2>group#%d %s %a%a@]" n.nid
      (Instr.opclass_name (Instr.opclass insts.(0)))
      pp_insts insts (pp_children g) (children g n)
  | Multi m ->
    Fmt.pf ppf "@[<v 2>multi#%d %s {%a}%a@]" n.nid
      (Opcode.binop_name m.m_op)
      Fmt.(list ~sep:semi pp_insts)
      m.m_groups (pp_children g) (children g n)
  | Gather vs ->
    Fmt.pf ppf "gather#%d [%a]" n.nid
      Fmt.(array ~sep:comma Printer.pp_value)
      vs

and pp_children g ppf = function
  | [] -> ()
  | children -> List.iter (fun c -> Fmt.pf ppf "@,%a" (pp_node g) c) children

let pp ppf g =
  match g.root with
  | None -> Fmt.string ppf "<empty graph>"
  | Some r -> pp_node g ppf r
