(** Open-addressing hash table from [int] keys to [int] values.

    The unboxed replacement for [(int, _) Hashtbl.t] on hot paths: linear
    probing over two flat arrays, multiplicative hashing, no allocation per
    query.  The key [min_int] is reserved (it marks empty slots).
    Iteration order is deliberately not exposed. *)

type t

val slot_of : mask:int -> int -> int
(** [slot_of ~mask k] is the home slot of key [k] in a table of
    [mask + 1] slots ([mask + 1] a power of two): a multiplicative hash
    that every bit of [k] feeds, so dense ids and packed multi-field keys
    both spread.  Pure; exported for tables that keep their own slot
    arrays. *)

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
