(** A map from instruction ids to non-negative ints, for the ids of one
    block or function.

    A function numbers its instructions densely from 1, so the map is an
    array over the id span: a lookup allocates nothing, and an id that was
    never set reads as [-1]. *)

type t

val create : lo:int -> hi:int -> t
(** A map for ids within [lo .. hi], none set yet; empty when [hi < lo]. *)

val get : t -> int -> int
(** The value set for the id, or [-1]; ids outside the span read as [-1]. *)

val set : t -> int -> int -> unit
(** Set an id that lies within the span given to {!create}. *)
