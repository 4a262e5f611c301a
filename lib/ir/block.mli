(** A basic block: an ordered, mutable sequence of instructions.

    The SLP papers operate on straight-line code inside one block, so this is
    the unit every analysis and transformation works over.  Program order is
    significant: memory dependences are defined relative to it. *)

type bound = Bound_const of int | Bound_sym of string
(** Loop bound: a compile-time constant or an [i64] function argument. *)

type loop_info = {
  counter : string;  (** induction symbol, local to the block's addresses *)
  l_start : int;
  l_stop : bound;    (** exclusive: iterate while [counter < l_stop] *)
  l_step : int;      (** > 0 *)
}

type kind = Straight | Loop of loop_info
(** A block is either straight-line code reached by fallthrough, or the body
    of a counted loop.  Loop state lives in memory (no phis): the only value
    a [Loop] block threads between iterations is its counter symbol, which
    may appear in the block's address expressions. *)

type t

val create : ids:Lslp_util.Id_gen.t -> ?label:string -> ?kind:kind -> unit -> t
(** An empty block of the function whose instruction-id source is [ids];
    every block of a function shares that one source. *)

val label : t -> string
val kind : t -> kind

val ids : t -> Lslp_util.Id_gen.t
(** The id source instructions created for this block draw from: the
    function's, so code generation numbers on after the function's last
    instruction. *)

val loop_info : t -> loop_info option
val is_loop : t -> bool

val bprint_bound : Buffer.t -> bound -> unit
(** Appends a loop bound's text form. *)

val trip_count : loop_info -> int option
(** Number of iterations when the bound is constant; [None] for symbolic
    bounds or non-positive steps. *)

val to_list : t -> Instr.t list

val to_array : t -> Instr.t array
(** The instructions in program order, as a fresh array: the one way the
    compiler turns a block into an instruction array.  Unlike
    [Array.of_list (to_list b)] it never forces a minor collection: OCaml
    5.1 runs one before allocating an array of more than 256 words whose
    initial element is a young heap block, which a block's just-built
    instructions nearly always are (DESIGN §14). *)

val length : t -> int

val append : t -> Instr.t -> unit
val append_list : t -> Instr.t list -> unit

val mem : t -> Instr.t -> bool
(** Whether an instruction with this id is in the block: a scan of the
    program order.  A pass holding the block's {!Arena} asks
    [Arena.mem] instead, which is one array read. *)

val insert_before : t -> anchor:Instr.t -> Instr.t list -> unit
(** Insert a sequence immediately before [anchor].
    @raise Invalid_argument if [anchor] is not in the block. *)

val remove : t -> Instr.t -> unit
val remove_ids : t -> int list -> unit

val set_order : t -> Instr.t list -> unit
(** Replace the block's contents/order wholesale (used by the scheduler). *)

val set_rev_order : t -> Instr.t list -> unit
(** [set_order] from the list in {e reverse} program order, which the block
    keeps as its spine as is: a pass that accumulates its output by
    consing hands it over without reversing it (code generation). *)

val iter : (Instr.t -> unit) -> t -> unit
val fold : ('a -> Instr.t -> 'a) -> 'a -> t -> 'a
val find_all : (Instr.t -> bool) -> t -> Instr.t list
