(** A kernel function: named arguments plus an ordered list of basic blocks.

    The control skeleton is minimal and structured: blocks execute in list
    order (fallthrough), and a block may be the body of a counted loop
    (see {!Block.kind}).  There are no phis — loop state lives in memory —
    and regions are self-contained: an instruction may only be referenced
    from its own block, which the verifier enforces, so every analysis and
    transformation stays block-local.  Array arguments model distinct
    (non-aliasing) arrays, as in the paper's kernels where each array is a
    separate global. *)

type t = {
  fname : string;
  args : Instr.arg list;
  ids : Lslp_util.Id_gen.t;
      (** the instruction-id source every block shares: ids are unique
          within the function, numbered from 1 in creation order *)
  mutable blocks : Block.t list;  (** execution order; never empty *)
}

val create : name:string -> args:Instr.arg list -> t
(** A function with a fresh id source and a single empty straight-line
    block labelled ["entry"]. *)

val entry : t -> Block.t
(** First block.  Single-block functions (every pre-region kernel) do all
    their work here. *)

val blocks : t -> Block.t list

val add_block : t -> Block.t -> unit
(** @raise Invalid_argument if the block was not created with [f.ids]. *)

val replace_block : t -> Block.t -> Block.t list -> unit
(** [replace_block f b news] splices [news] where [b] stood, preserving the
    order of the surrounding blocks — the unroller's primitive.
    @raise Invalid_argument if [b] is not a block of [f] or a block of
    [news] was not created with [f.ids]. *)

val iter_instrs : (Instr.t -> unit) -> t -> unit
val fold_instrs : ('a -> Instr.t -> 'a) -> 'a -> t -> 'a
val num_instrs : t -> int

val find_arg : t -> string -> Instr.arg option
val int_args : t -> Instr.arg list

val clone : t -> t
(** Deep copy: fresh instructions (via {!Instr.copy}, so every per-instruction
    field is preserved) with remapped operands, block structure and loop
    metadata intact.  The copy gets its own id source, started where [f]'s
    stands, so a function numbered [1..n] clones to [n+1..2n] and two clones
    of one function print identically.  An operand naming an instruction of
    another function is kept as it is, even when its id collides with one
    of [f]'s.  Passes can then be run destructively on the copy while
    the original remains usable (e.g. as the scalar baseline in differential
    tests). *)
