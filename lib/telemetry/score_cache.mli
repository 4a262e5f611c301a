(** Memo table for the recursive look-ahead score.

    Keyed by (instruction id, instruction id, remaining depth, combine
    mode), stored as one packed int: [a:25|b:25|level:8|mode:4] fits a
    single word in an open-addressing table kept at most half full.  Ids
    are unique within one function, and a reorder call only ever sees the
    instructions of one block.  Only sound while the operand DAG under
    both instructions is frozen, so callers scope the entries to one
    reorder invocation — the table is {!clear}ed at the start of the call
    — and entries never survive a mutation, a rollback or a budget abort.
    Constants and arguments have no ids and are never cached (their
    comparisons are O(1) anyway).

    Entries live for one reorder call; the storage lives for one domain.
    {!clear} bumps a generation stamp instead of wiping the slots, so it
    is O(1), and the reorderer reuses one table per domain ({!acquire})
    across every reorder call and graph build that domain runs.  Up to
    512 slots are kept across a clear; a call that needs more grows
    storage of its own, dropped by the next clear.  See DESIGN.md §11. *)

type t

val create : unit -> t
(** A fresh table of its own, independent of every domain's. *)

val absent : int
(** What {!find} returns on a miss; never a stored score. *)

val find : t -> a:int -> b:int -> level:int -> mode:int -> int
(** The stored score for two instruction ids, or {!absent}.  Ids of
    [2^25] or more, levels of [2^8] or more and modes of [2^4] or more are
    never cached. *)

val store : t -> a:int -> b:int -> level:int -> mode:int -> int -> unit
(** Insert or overwrite; storing {!absent} or an uncacheable key does
    nothing. *)

val size : t -> int
(** Entries stored since the last {!clear}. *)

val clear : t -> unit
(** Drop every entry, in O(1): the table moves to a new generation and
    every slot of an older one reads as empty.  Storage grown past 512
    slots is let go for the largest kept below it. *)

exception Nested_acquire
(** Raised by {!acquire} when the calling domain's table is already held. *)

val acquire : unit -> t
(** The calling domain's table, cleared and marked held until {!release}.
    Reorder calls never nest on one domain, so a second [acquire] before
    the [release] is a bug: it raises {!Nested_acquire} rather than let
    two holders share entries. *)

val release : t -> unit
(** Hand back a table from {!acquire}. *)

val isolated : (unit -> 'a) -> 'a
(** [isolated f] runs [f] with every {!acquire} on the calling domain
    returning a fresh {!create}d table: each reorder call memoizes in a
    table of its own, the reference a reused table must agree with. *)
