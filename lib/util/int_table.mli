(** Open-addressing hash table from [int] keys to [int] values.

    The unboxed replacement for [(int, _) Hashtbl.t] on hot paths: linear
    probing over two flat arrays, multiplicative hashing, no allocation per
    query.  The key [min_int] is reserved (it marks empty slots).
    Iteration order is deliberately not exposed. *)

type t

val create : int -> t
(** [create n] sizes the table for about [n] entries (it grows as needed). *)

val length : t -> int
val clear : t -> unit
(** O(capacity) when the table holds entries, O(1) when it is empty. *)

val set : t -> int -> int -> unit
(** Insert or overwrite. @raise Invalid_argument on the reserved key. *)

val get : t -> int -> absent:int -> int
(** Lookup without allocating; [absent] when the key is missing. *)

val mem : t -> int -> bool
