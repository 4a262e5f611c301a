(** Transactional execution of in-place block transformations.

    Snapshot the mutable state of one block (or every block of a function),
    run a transformation under {!protect}, and on any exception the
    snapshot is restored and a typed {!failure} comes back instead.
    Instruction identity survives a rollback: the original [Instr.t] values
    are reinstated, so id-keyed caller state stays valid. *)

open Lslp_ir

type snapshot

val snapshot_block : Block.t -> snapshot
val snapshot_func : Func.t -> snapshot

val restore : snapshot -> unit
(** Idempotent; safe to call on an untouched function. *)

type failure = {
  pass : string;  (** the pass executing when the exception arose *)
  error : string;
  budget_exhausted : bool;  (** the failure was {!Budget.Exhausted} *)
}

val failure_of_exn : pass:string -> exn -> failure
(** Classify an exception the way {!protect} does: {!Inject.Fault},
    {!Budget.Exhausted} and {!Check_failed} carry their own attribution;
    anything else is stringified under [pass]. *)

exception Check_failed of { pass : string; error : string }
(** Raised by callers to abort a transaction on a *detected* problem (a
    verifier or legality finding) rather than an exceptional one; [protect]
    converts it into a {!failure} carrying the same fields. *)

val protect :
  snapshot:snapshot -> pass:(unit -> string) -> (unit -> 'a) ->
  ('a, failure) result
(** [protect ~snapshot ~pass f] runs [f]; on exception restores [snapshot]
    and returns [Error failure] with [failure.pass] taken from the [pass]
    thunk (callers update a ref as they move between stages) — except for
    {!Inject.Fault}, {!Budget.Exhausted} and {!Check_failed}, which carry
    their own attribution.  [Out_of_memory] and [Sys.Break] are re-raised,
    and so is {!Budget.Deadline_expired} — {e after} restoring the
    snapshot — because a deadline is job-level cancellation, not a region
    failure; everything else, including [Stack_overflow] and
    [Assert_failure], is contained. *)
