(** The SLP graph — the algorithm's core data structure.

    Nodes are vectorizable groups, LSLP multi-nodes (chains of same-opcode
    commutative groups), or gathers.  Children are operand columns in operand
    order (post-reordering), stored as int arrays of node slots; claims
    are an int array over the block {!Arena}'s compact indices, and bundle
    identity lives in an open-addressing table.  A node's
    [nid] is its run-unique display id; its [slot] is the graph-local dense
    index that the edge arrays are indexed by — slots never appear in
    output.

    The per-column queries of graph build and cost are allocation-free
    until they succeed: {!claimed} and {!lane_of} read one packed claim
    word, {!shuffle_pattern} walks the column's claim words in place, and
    a column's bundle {!key} is built once for both {!find_existing} and
    {!register_bundle}. *)

open Lslp_ir

type node = private {
  nid : int;   (** run-unique display id (traces, DOT) *)
  slot : int;  (** graph-local dense index *)
  shape : shape;
}

and shape =
  | Group of Instr.t array
  | Multi of multi
  | Gather of Instr.value array

and multi = {
  m_op : Opcode.binop;
  m_groups : Instr.t array list;  (** internal group bundles, root first *)
}

type t

val create : ?ids:Lslp_util.Id_gen.t -> Arena.t -> t
(** A graph claiming instructions of the arena's block.  [ids] is the
    node-id source: one generator threaded through every graph of a run
    keeps nids unique run-wide (the DOT exporter names nodes [n<nid>]
    across subgraph clusters) and deterministic per run however many runs
    share the process.  Without it a fresh generator starts at 1. *)

val add_node : t -> shape -> node
(** Create a node, record it, claim its instructions; the first node added
    becomes the root. *)

val set_children : t -> node -> node list -> unit
(** Set a node's operand columns (stored as an int array of slots). *)

val children : t -> node -> node list
val child_slots : t -> node -> int array
val node_of_slot : t -> int -> node

val claimed : t -> Instr.t -> bool
(** Has this instruction been absorbed into a vectorizable group? O(1);
    never for one outside the arena (made after the graph). *)

val lane_of : t -> Instr.t -> (node * int) option
(** The node and lane whose vector value carries this claimed instruction's
    result ([None] for multi-node internals, which are reassociated away). *)

val shuffle_pattern : t -> Instr.value array -> (node * int list) option
(** When a gather column is a pure permutation of one vectorized node's
    lanes, the node and the permutation (emitted as a single shuffle).
    Reads the claim words in place; allocates only on a match. *)

type key
(** The identity of a per-lane value bundle: built once per column by
    {!bundle_key} and used for both the lookup and the registration. *)

val bundle_key : t -> Instr.value array -> key

val find_existing : t -> key -> node option
(** Node previously registered for exactly this per-lane value bundle
    (diamond reuse). *)

val register_bundle : t -> key -> node -> unit

val iter_claimed : t -> (Instr.t -> unit) -> unit
(** Every claimed instruction once, in program order. *)

val nodes : t -> node list
(** Creation order, root first. *)

val node_count : t -> int
(** Number of nodes; slots are exactly [0 .. node_count - 1]. *)

val lanes_of_node : node -> int

val pp_node : t -> node Fmt.t
val pp : t Fmt.t
