(** Resource budgets: caps that make pathological inputs bail cleanly
    instead of hanging or overflowing the stack.

    A {!t} is the static limit set carried by the vectorizer configuration;
    a {!meter} is the mutable per-region counter set.  Checked spends raise
    {!Exhausted}, which the pipeline's transaction layer converts into a
    [Budget_exhausted] rollback. *)

type t = {
  lookahead_fuel : int;
      (** total recursive look-ahead score evaluations per region *)
  max_graph_nodes : int;  (** SLP-graph nodes built per region *)
  max_region_steps : int;
      (** seed attempts (graph + codegen cycles) per basic block *)
}

val unlimited : t
val default : t

exception Exhausted of string
(** Carries a description of the cap that tripped, e.g.
    ["look-ahead fuel cap of 200000"]. *)

type meter

val meter : t -> meter
(** A fresh counter set against [t]; create one per region. *)

val spend_fuel : meter -> unit
val spend_node : meter -> unit
val spend_step : meter -> unit

val pp : t Fmt.t

(** {2 Per-job deadlines}

    The compile service's cooperative cancellation signal.  A deadline is
    a step budget, not a clock: it is ticked at the same eight pass
    boundaries the fault injector instruments, and expiry raises
    {!Deadline_expired} — which, unlike {!Exhausted}, the transaction
    layer {e re-raises} (after restoring its snapshot), so it cancels the
    whole job instead of degrading one region.  See DESIGN.md §15 for the
    deadline-vs-fuel contract. *)

type deadline

exception Deadline_expired of { steps : int }

val deadline : int -> deadline
(** A fresh per-job meter allowing that many pass-boundary ticks. *)

val deadline_tick : deadline option -> unit
(** No-op on [None]; otherwise spend one tick.
    @raise Deadline_expired when the budget is gone. *)

val deadline_spin : deadline option -> 'a
(** Simulate a hung pass: spin on {!deadline_tick} until the watchdog
    fires.  With [None] armed, raises {!Deadline_expired} immediately
    rather than hanging the process for real. *)
