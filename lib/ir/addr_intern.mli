(** Address interning without strings: array base symbols and affine
    shapes to dense small ints.

    A shape is the symbolic part of an index ({!Affine.terms}); two
    accesses with the same base and shape differ by a constant number of
    elements.  Ids are issued in first-seen order, so a deterministic
    sequence of queries yields deterministic ids.  Each lookup is one
    compare against the previous query's key, then a scan of the keys
    seen so far: O(k) for k distinct bases or shapes, which a block keeps
    to a handful.  A lookup of a known key allocates nothing. *)

type t

val create : unit -> t

val base : t -> string -> int
(** Existing id of an array base symbol, or the next dense one. *)

val shape : t -> Affine.t -> int
(** Existing id of the index's symbolic part, or the next dense one. *)

val base_count : t -> int
(** Number of distinct bases seen; base ids are [0 .. base_count - 1]. *)
