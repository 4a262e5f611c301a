(** Domain-safe id generation.

    One {!t} is a monotone counter backed by [Atomic.t]: {!next} hands out
    each integer exactly once even when several domains draw concurrently
    (the Domain-pool compile server shards whole pipeline runs across
    cores).  On a single domain the sequence is [first, first+1, ...] — the
    same numbers the old [ref]-based counters produced, so sequential
    golden output is unchanged.

    Every generator in the tree lives in per-run or per-object state, so
    concurrent runs number their artifacts independently and
    deterministically:
    - per function ([Lslp_ir.Func.t]'s [ids]): instruction ids, unique
      within the function and shared by all of its blocks;
    - per run ([Lslp_trace.Trace.fresh_gid], the SLP-graph node ids).

    [lslp-lint] rule R1 (global mutable state) deliberately does not flag
    [Atomic]-backed values: this module is the sanctioned way to keep a
    global counter. *)

type t

val create : ?first:int -> unit -> t
(** A fresh generator whose first handed-out id is [first] (default 0). *)

val next : t -> int
(** Claim and return the next id.  Lock-free; each id is returned at most
    once across all domains sharing [t]. *)

val peek : t -> int
(** The id {!next} would return now.  Exact while no other domain draws
    from [t]: a function's source, which the one compile running on it
    owns, so code generation reads it to know which ids it drew.  Racy on
    a shared source. *)

val issued : t -> int
(** How many ids have been handed out so far (same caveat as {!peek}). *)
