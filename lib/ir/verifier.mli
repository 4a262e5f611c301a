(** IR well-formedness checking.

    Catches use-before-def, type and lane-count mismatches, unknown
    arguments, duplicate instructions and malformed addresses.  Tests run it
    after every transformation; the pipeline runs it inside every region
    transaction and keeps the block arenas it checked
    ({!check_func_arenas}).

    Per operand the checks are allocation-free: one {!Instr.iter_operands}
    walk, a monomorphic {!Types.equal}, an operand type read without an
    option, and an argument lookup by name that resolves a duplicated
    name to its last declaration. *)

type error = { instr : Instr.t option; message : string }

val pp_error : error Fmt.t
val error_to_string : error -> string

exception Invalid of error list

val check_func : Func.t -> error list
(** All violations found, in program order ([[]] = well-formed). *)

val check_func_arenas : Func.t -> (Arena.t list, error list) result
(** {!check_func}, keeping what it builds: [Ok arenas] holds one fresh
    {!Arena.of_block} per block, in [Func.blocks] order, each of which has
    passed {!Arena.check}; [Error errors] is the non-empty
    {!check_func} list.  An arena describes its block as verified, so a
    caller may keep reading it until it mutates the block or restores a
    snapshot taken before the check. *)

val verify_exn : Func.t -> unit
(** @raise Invalid with the full error list if the function is ill-formed. *)

val is_valid : Func.t -> bool
