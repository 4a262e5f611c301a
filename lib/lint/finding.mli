(** A lint finding: one rule violation at one source location.

    Findings are data, never control flow (the same contract as the
    pipeline's diagnostics): the driver collects every finding in a run,
    applies the waiver file, and only then decides the exit code. *)

type t = {
  rule : string;  (** stable rule id, e.g. ["R1"] *)
  slug : string;  (** human slug, e.g. ["global-mutable-state"] *)
  file : string;  (** path as scanned, normalized (no leading [./]) *)
  line : int;     (** 1-based *)
  col : int;      (** 0-based, matching compiler convention *)
  ident : string;
      (** the offending name — the bound variable for R1, the primitive
          path otherwise (e.g. ["invalid_arg"], ["Unix.gettimeofday"],
          ["Random.self_init"], the exception constructor for bare
          raises).  Waiver entries match on this, not on line numbers, so
          unrelated edits to a waived file cannot go stale. *)
  message : string;
}

val v :
  rule:string ->
  slug:string ->
  file:string ->
  loc:Location.t ->
  ident:string ->
  string ->
  t

val compare : t -> t -> int
(** Order by (file, line, col, rule, ident) — the report order. *)

val pp : t Fmt.t
(** [file:line:col: error[R1:slug]: message] — one line, cram-stable. *)

val json : waived:bool -> t -> Lslp_util.Json.t
