(** String interner: names to dense small ints, first-seen order. *)

type t

val create : int -> t

val intern : t -> string -> int
(** Existing id, or the next dense id for a new string. *)
