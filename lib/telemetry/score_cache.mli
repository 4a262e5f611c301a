(** Memo table for the recursive look-ahead score.

    Keyed by (subject, subject, remaining depth, combine mode), stored as
    one packed int: a subject is a dense per-cache local ({!subject}), and
    [a:20|b:20|level:8|mode:4] fits a single word in an open-addressing
    int table.  Only sound while the operand DAG under both instructions
    is frozen, so callers scope the entries to one reorder invocation —
    a fresh cache, or one {!clear}ed at the start of the call — and
    entries never survive a mutation, a rollback or a budget abort.
    Constants and arguments have no ids and are never cached (their
    comparisons are O(1) anyway). *)

type t

val create : ?dense:int -> unit -> t
(** [dense] (default 0) reserves the locals [0 .. dense - 1] for callers
    that already hold a dense index per instruction — an arena's compact
    index — so those subjects need no interning. *)

val subject : t -> index:int -> id:int -> int
(** The local of an instruction: [index] itself when it lies in
    [0 .. dense - 1], otherwise its global [id] interned to a local past
    the dense range (first-seen order).  A given instruction must always
    come with the same [index] for the lifetime of the cache. *)

val absent : int
(** What {!find} returns on a miss; never a stored score. *)

val find : t -> a:int -> b:int -> level:int -> mode:int -> int
(** The stored score for two subjects, or {!absent}. *)

val store : t -> a:int -> b:int -> level:int -> mode:int -> int -> unit
val size : t -> int

val clear : t -> unit
(** Drop every entry and every interned id; the dense range stays.  Free
    on an empty cache, so a reorder call that never scores pays nothing
    for the clear. *)
