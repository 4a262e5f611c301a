(* Resource budgets.

   A production vectorizer must never hang or blow the stack on adversarial
   input: look-ahead scoring is exponential in the worst case, multi-node
   coarsening can chase arbitrarily long chains, and a buggy seed filter
   could re-offer the same region forever.  A budget caps each of those
   dimensions; a [meter] is the per-region mutable counter set, and checked
   spends raise {!Exhausted} — which the pipeline's transaction layer turns
   into a clean [Budget_exhausted] rollback instead of a hang. *)

type t = {
  lookahead_fuel : int;
  max_graph_nodes : int;
  max_region_steps : int;
}

let unlimited =
  {
    lookahead_fuel = max_int;
    max_graph_nodes = max_int;
    max_region_steps = max_int;
  }

(* Orders of magnitude above anything the catalog or the fuzzer produces:
   tripping a default budget means the input is pathological, not large. *)
let default =
  {
    lookahead_fuel = 200_000;
    max_graph_nodes = 4_096;
    max_region_steps = 1_024;
  }

exception Exhausted of string

type meter = {
  budget : t;
  mutable fuel_used : int;
  mutable nodes_built : int;
  mutable steps_taken : int;
}

let meter budget = { budget; fuel_used = 0; nodes_built = 0; steps_taken = 0 }

let exhaust what limit = raise (Exhausted (Fmt.str "%s cap of %d" what limit))

let spend_fuel m =
  m.fuel_used <- m.fuel_used + 1;
  if m.fuel_used > m.budget.lookahead_fuel then
    exhaust "look-ahead fuel" m.budget.lookahead_fuel

let spend_node m =
  m.nodes_built <- m.nodes_built + 1;
  if m.nodes_built > m.budget.max_graph_nodes then
    exhaust "graph-node" m.budget.max_graph_nodes

let spend_step m =
  m.steps_taken <- m.steps_taken + 1;
  if m.steps_taken > m.budget.max_region_steps then
    exhaust "region-step" m.budget.max_region_steps

let pp ppf t =
  let lim ppf n = if n = max_int then Fmt.string ppf "inf" else Fmt.int ppf n in
  Fmt.pf ppf "fuel=%a nodes=%a steps=%a" lim t.lookahead_fuel lim
    t.max_graph_nodes lim t.max_region_steps

(* Per-job deadlines for the compile service.

   Unlike the per-region caps above — whose [Exhausted] the transaction
   layer *absorbs*, degrading one region — a deadline is the service's
   cooperative cancellation signal for a whole compile job.  It is a step
   counter, not a clock (lint rule R4: no wall-clock in decision paths),
   ticked at the same pass boundaries the fault injector instruments; when
   the budget is gone {!Deadline_expired} is raised and deliberately
   re-raised by {!Transact.protect} and [Pipeline.run] (after restoring
   their snapshots), so it cancels the job instead of degrading a region.
   The pool treats it like any other worker death: tear down, retry up to
   the cap, then record a typed failure. *)

type deadline = { deadline_steps : int; mutable ticks : int }

exception Deadline_expired of { steps : int }

let deadline deadline_steps = { deadline_steps; ticks = 0 }

let deadline_tick = function
  | None -> ()
  | Some d ->
    d.ticks <- d.ticks + 1;
    if d.ticks > d.deadline_steps then
      raise (Deadline_expired { steps = d.deadline_steps })

(* A simulated hang: spin on the cooperative check until the watchdog
   fires.  This is exactly what a real runaway pass looks like to the
   service — progress only at pass boundaries, termination only via the
   deadline.  Without an armed deadline the hang would be genuine, so we
   report it as an immediate expiry instead of freezing the process. *)
let rec deadline_spin d =
  (match d with
   | None -> raise (Deadline_expired { steps = 0 })
   | Some _ -> ());
  deadline_tick d;
  deadline_spin d
