(** Memo table for the recursive look-ahead score.

    Keyed by (instruction id, instruction id, remaining depth, combine
    mode), stored as one packed int: [a:25|b:25|level:8|mode:4] fits a
    single word in an open-addressing int table.  Ids are unique within
    one function, and a cache only ever sees the instructions of one
    block.  Only sound while the operand DAG under both instructions is
    frozen, so callers scope the entries to one reorder invocation — a
    fresh cache, or one {!clear}ed at the start of the call — and entries
    never survive a mutation, a rollback or a budget abort.  Constants and
    arguments have no ids and are never cached (their comparisons are O(1)
    anyway). *)

type t

val create : unit -> t

val absent : int
(** What {!find} returns on a miss; never a stored score. *)

val find : t -> a:int -> b:int -> level:int -> mode:int -> int
(** The stored score for two instruction ids, or {!absent}.  Ids of
    [2^25] or more are never cached. *)

val store : t -> a:int -> b:int -> level:int -> mode:int -> int -> unit
val size : t -> int

val clear : t -> unit
(** Drop every entry.  Free on an empty cache, so a reorder call that
    never scores pays nothing for the clear. *)
