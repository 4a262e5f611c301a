(** A map from instruction ids to non-negative ints, for the ids of one
    block or function.

    Ids are dense in practice (one generator numbers them in build order),
    so the map is an array over the id span when that span is at most
    [4 * count + 1024] wide, and an {!Int_table} otherwise.  Either way a
    lookup allocates nothing, and an id that was never set reads as [-1]. *)

type t

val create : count:int -> lo:int -> hi:int -> t
(** A map for [count] ids, all within [lo .. hi], none set yet.  With
    [count = 0] the bounds are ignored. *)

val get : t -> int -> int
(** The value set for the id, or [-1]; ids outside the span read as [-1]. *)

val set : t -> int -> int -> unit
(** Set an id that lies within the span given to {!create}. *)
