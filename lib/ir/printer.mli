(** Textual form of the IR (LLVM-flavoured).  Total: never raises, even on
    ill-formed code, so it can be used in error messages and debug output.

    One set of [Buffer.t] emitters writes every text form.  The
    [*_to_string] functions fill one buffer each and are the fast path: the
    compile service uses {!func_to_string} for its content key and its
    result.  Every [pp_*] is a thin wrapper that passes the emitted text to
    [Format], so there is one text form and [Format] is never run per
    label, use or constant. *)

val pp_const : Instr.const Fmt.t
(** Exact (hex-float) form. *)

val pp_const_readable : Instr.const Fmt.t
(** Short decimal form when it round-trips ([%.12g] for [f64], [%.7g] for
    [f32]), hex-float otherwise. *)

val pp_value : Instr.value Fmt.t
val pp_instr : Instr.t Fmt.t

val pp_func : Func.t Fmt.t
(** One line per header, block label and instruction, separated by
    [Fmt.cut] inside a vertical box: the bytes equal {!func_to_string} at
    top level, and the lines keep the enclosing indentation when embedded
    in another box. *)

val instr_to_string : Instr.t -> string

val func_to_string : Func.t -> string
(** Lines separated by ['\n'], no trailing newline. *)

val value_to_string : Instr.value -> string
