(** Local common-subexpression elimination (the early-CSE the real pipeline
    runs before SLP), and the value numbering behind it.  Commutative
    operands are canonicalized, loads are invalidated by same-array stores.

    The frontend does not run the pass: it builds with
    [Builder.create ~value_numbering:true], which asks a {!numbering} for
    each instruction as it is made.  The pipeline runs {!run_block} as its
    cleanup after vectorization. *)

val run_block : Block.t -> int
(** Returns the number of instructions removed. *)

val run : Func.t -> int

(** {2 Value numbering} *)

type numbering
(** The available pure values of one straight-line block, by key, and the
    store generation of each array. *)

val numbering : ?size:int -> unit -> numbering
(** [size]: the instructions the tables are first sized for. *)

val find_or_add : numbering -> Instr.t -> int
(** [-1] when [i] is a store (its array's loads are retired) or the first
    instruction with its key; otherwise the handle
    of that first instruction's value, for {!first}.  [i]'s operands must
    be values this numbering handed out. *)

val first : numbering -> int -> Instr.value

(** {2 Value keys} *)

type names
(** Dense ids for the argument, array and symbol names keys mention. *)

val names : unit -> names

val put_value : names -> int array -> int -> Instr.value -> unit
(** [put_value names w o v] writes [v]'s two key words at [w.(o)] and
    [w.(o + 1)]: equal words iff equal values (instruction identity,
    argument name, constant bits). *)
