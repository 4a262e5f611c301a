(** Open-addressing hash table keyed by [int array]s.

    Composite identities (vector-bundle shapes, CSE value keys) encode as
    short int arrays; this maps such a key to an [int] handle without
    string building or polymorphic hashing.  An empty array is not a valid
    key.  Keys must not be mutated after insertion. *)

type t

val create : int -> t
val length : t -> int

val set : t -> int array -> int -> unit
(** Insert or overwrite. @raise Invalid_argument on the empty key. *)

val find_or_add : t -> int array -> int -> int
(** [find_or_add t k v] is the value bound to [k], binding it to [v] first
    when [k] is absent — [get] then [set] in one probe.  A caller that
    passes a [v] no key is bound to tells a hit from an insertion by
    comparing the result with [v].
    @raise Invalid_argument on the empty key. *)

val get : t -> int array -> absent:int -> int
val mem : t -> int array -> bool
