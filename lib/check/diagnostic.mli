(** Typed diagnostics for the static checkers.

    Checkers report what they found as values, never as exceptions: a
    diagnostic names the rule that fired, carries a severity, and points at
    the offending instructions so callers (CLI, bench harness, tests) can
    render or count them as they see fit. *)

open Lslp_ir

type severity = Error | Warning

type t = {
  severity : severity;
  rule : string;  (** stable rule identifier, e.g. ["lane-independence"] *)
  instrs : Instr.t list;  (** offending instructions, possibly empty *)
  message : string;
}

val error : ?instrs:Instr.t list -> rule:string -> string -> t
val warning : ?instrs:Instr.t list -> rule:string -> string -> t

val errors : t list -> t list

val summary : t list -> string
(** ["2 error(s), 1 warning(s)"] — stable one-line count. *)

val pp : t Fmt.t
val to_string : t -> string
