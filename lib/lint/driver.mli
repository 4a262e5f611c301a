(** Runs the rule registry over a file set and folds in the waiver file.

    The driver is what [bin/lint.ml] and the tests share: collect the
    [.ml] files under the given roots (skipping [_build] and hidden
    directories), parse each with the compiler's parser, apply
    {!Rules.check}, then partition the findings against the waiver
    entries.  Everything is deterministic: files are scanned in sorted
    order and findings are sorted by location. *)

type report = {
  files : string list;       (** files scanned, sorted *)
  parse_errors : (string * string) list;  (** file, message *)
  waived : (Finding.t * Waiver.entry) list;
  unwaived : Finding.t list;
  stale : Waiver.entry list;
}

val lint_source : file:string -> string -> (Finding.t list, string) result
(** Parse one implementation from a string and apply the rules.  The
    error case is a parse failure rendered as [file:line: message]. *)

val run :
  ?rules:string list -> ?waivers:Waiver.entry list -> string list -> report
(** Lint the [.ml] files under the given roots.  [rules] restricts to
    the given ids/slugs (default: all); [waivers] defaults to none. *)

val ok : ?check_waivers:bool -> report -> bool
(** No parse errors, no unwaived findings — and, with
    [~check_waivers:true], no stale waiver entries either. *)

val pp_text : ?check_waivers:bool -> report Fmt.t
(** Human rendering: one {!Finding.pp} line per unwaived finding, stale
    waiver lines when [check_waivers], then a one-line summary. *)

val to_json : ?check_waivers:bool -> report -> Lslp_util.Json.t
