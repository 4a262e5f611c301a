(** The committed waiver file: per-site justifications for findings that
    are safe on purpose.

    Format, one entry per line ([#] comments and blank lines ignored):

    {v
    <rule> <file> <ident> -- <justification>
    R4 bin/lint.ml Unix.gettimeofday -- lint bench wall-time measurement
    R3 lib/ir/types.ml invalid_arg -- lane-count preconditions are programmer errors
    v}

    Entries match on (rule, file, ident) — never on line numbers, so
    unrelated edits to a waived file cannot silently invalidate the
    waiver.  [ident] may be [*] to waive every ident of one rule in one
    file.  The justification after [--] is mandatory.

    [lslp-lint --check-waivers] fails on {e stale} entries — entries that
    matched no finding in the run — so a fixed site must also drop its
    waiver in the same commit. *)

type entry = {
  w_rule : string;
  w_file : string;
  w_ident : string;  (** ["*"] matches any ident *)
  w_reason : string;
  w_lineno : int;    (** line in the waiver file, for error messages *)
}

val parse : file:string -> string -> (entry list, string) result
(** Parse the waiver file contents; [file] names it in errors.  Rejects
    unknown rule ids and entries without a [--] justification. *)

val load : string -> (entry list, string) result
(** {!parse} on the file's contents; missing file is an error. *)

type applied = {
  waived : (Finding.t * entry) list;
  unwaived : Finding.t list;
  stale : entry list;  (** entries that matched no finding *)
}

val apply : entry list -> Finding.t list -> applied

val pp_entry : entry Fmt.t

val entry_json : entry -> Lslp_util.Json.t
