(* Transactional regions.

   The pipeline mutates blocks in place, so "roll back" must undo two kinds
   of damage: the block's instruction order/membership (codegen rebuilds the
   whole list) and in-place operand rewrites on surviving scalar
   instructions ([Instr.map_operands] mutates [kind]).  A snapshot therefore
   saves, per block, the ordered instruction list plus every instruction's
   [kind]; [restore] writes both back.  The list is the block's memoized
   program order, held as is: lists are never mutated, and a committed
   block's order is already memoized by the verifier's arena build, so
   the snapshot usually adds only the kinds array, one word per
   instruction.  Instruction identity is preserved across a rollback — the
   very same [Instr.t] values end up in the block — so id-keyed tables
   (consumed seeds, dependence snapshots, provenance) held by the caller
   stay meaningful.

   [protect] is the commit boundary: run a thunk; on any exception, restore
   the snapshot and return a typed {!failure} naming the pass that was
   executing.  Only [Out_of_memory], [Sys.Break] and the service's
   [Budget.Deadline_expired] (restored first) escape — everything else,
   including [Stack_overflow] and assertion failures, degrades the region
   instead of killing the compile. *)

open Lslp_ir

type saved_block = {
  block : Block.t;
  order : Instr.t list;        (* the block's program order, shared *)
  kinds : Instr.kind array;    (* [kinds.(k)] is the kind of [order]'s k-th *)
}

type snapshot = saved_block list

(* The array starts from a static constant, never from a (young) kind: an
   array over 256 words with a young initial element costs a minor
   collection (DESIGN §14). *)
let save_block (b : Block.t) =
  let order = Block.to_list b in
  let kinds =
    Array.make (Block.length b) (Instr.Splat (Instr.Const (Instr.Cint 0L)))
  in
  List.iteri (fun k (i : Instr.t) -> kinds.(k) <- i.Instr.kind) order;
  { block = b; order; kinds }

let snapshot_block b : snapshot = [ save_block b ]
let snapshot_func (f : Func.t) : snapshot = List.map save_block (Func.blocks f)

let restore (snap : snapshot) =
  List.iter
    (fun s ->
      List.iteri (fun k i -> Instr.set_kind i s.kinds.(k)) s.order;
      Block.set_order s.block s.order)
    snap

type failure = { pass : string; error : string; budget_exhausted : bool }

exception Check_failed of { pass : string; error : string }

let failure_of_exn ~pass (e : exn) =
  match e with
  | Inject.Fault p ->
    { pass = Inject.point_name p; error = "injected fault";
      budget_exhausted = false }
  | Budget.Exhausted what ->
    { pass; error = Fmt.str "budget exhausted: %s" what;
      budget_exhausted = true }
  | Check_failed { pass; error } -> { pass; error; budget_exhausted = false }
  | e -> { pass; error = Printexc.to_string e; budget_exhausted = false }

let protect ~(snapshot : snapshot) ~(pass : unit -> string)
    (f : unit -> 'a) : ('a, failure) result =
  match f () with
  | v -> Ok v
  | exception ((Out_of_memory | Sys.Break) as fatal) -> raise fatal
  | exception (Budget.Deadline_expired _ as cancel) ->
    (* job-level cooperative cancellation (the service's watchdog): roll
       the region back so the function is left scalar-clean, but re-raise —
       a deadline cancels the whole job, it must not degrade to a
       per-region failure and let the compile keep burning steps *)
    restore snapshot;
    raise cancel
  | exception e ->
    restore snapshot;
    Error (failure_of_exn ~pass:(pass ()) e)
