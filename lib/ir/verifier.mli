(** IR well-formedness checking.

    Catches use-before-def, type and lane-count mismatches, unknown
    arguments, duplicate instructions and malformed addresses.  Tests run it
    after every transformation; the pipeline runs it inside every region
    transaction and keeps the block arenas it checked
    ({!check_func_arenas}).

    One walk per block checks it and builds its arena's id → index map,
    which doubles as the def-before-use and duplicate stamp, and use
    counts.  Per operand the checks are allocation-free: a monomorphic
    {!Types.equal}, an operand type read without an option, and an
    argument lookup by name that resolves a duplicated name to its last
    declaration. *)

type error = { instr : Instr.t option; message : string }

val pp_error : error Fmt.t
val error_to_string : error -> string

exception Invalid of error list

val check_func : Func.t -> error list
(** All violations found, in program order ([[]] = well-formed). *)

val check_func_arenas : Func.t -> (Arena.t list, error list) result
(** {!check_func}, keeping what it builds: [Ok arenas] holds one arena
    per block, built in the walk that checked it ({!Arena.of_index}), in
    [Func.blocks] order, each of which has passed {!Arena.check};
    [Error errors] is the non-empty {!check_func} list.  An arena
    describes its block as verified until the caller mutates the block
    or restores a snapshot taken before the check. *)

val verify_exn : Func.t -> unit
(** @raise Invalid with the full error list if the function is ill-formed. *)
