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

val length : t -> int

val instrs : t -> Instr.t array
(** The block's instruction array, read-only: program order in slots
    [0 .. length b - 1], room for {!append} past them.  No slot below the
    length is ever rewritten, every change but {!append} installs a fresh
    array, so the array keeps the state it was taken in: {!Arena.of_block}
    is a view of it, a transaction snapshot rolls back to it. *)

val reinstall : t -> Instr.t array -> int -> unit
(** [reinstall b a n] makes slots [0 .. n - 1] of [a], which {!instrs}
    and {!length} returned earlier, the block's program order again: a
    snapshot's rollback.  The next {!append} copies [a]: a holder may read
    past [n]. *)

val to_list : t -> Instr.t list
(** The program order as a fresh list: the slow path. *)

val append : t -> Instr.t -> unit

val mem : t -> Instr.t -> bool
(** Whether an instruction with this id is in the block: a scan of the
    program order.  A pass holding the block's {!Arena} asks
    [Arena.mem] instead, which is one array read. *)

val remove_ids : t -> int list -> unit
(** Drop the instructions with these ids, in one compacting pass. *)

val filteri : t -> (int -> Instr.t -> bool) -> unit
(** Keep the instructions at the positions where [keep k instr] holds, in
    one compacting pass. *)

val set_order : t -> Instr.t list -> unit
(** Replace the block's contents/order wholesale, as a fresh array. *)

val set_rev_order : t -> Instr.t list -> unit
(** [set_order] from the list in {e reverse} program order, filled from
    the array's end: code generation's accumulator, not reversed. *)

val iter : (Instr.t -> unit) -> t -> unit
val fold : ('a -> Instr.t -> 'a) -> 'a -> t -> 'a
(** Both walk the state at the call, whatever [f] does to the block. *)
