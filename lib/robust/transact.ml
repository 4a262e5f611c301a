(* Transactional regions.

   The pipeline mutates blocks in place, so "roll back" must undo two kinds
   of damage: the block's instruction order/membership (codegen rebuilds the
   whole array) and in-place operand rewrites on surviving scalar
   instructions ([Instr.map_operands] mutates [kind]).  A snapshot therefore
   saves, per block, its program order plus every instruction's [kind];
   [restore] writes both back.  The order is the block's own instruction
   array and length, held as is: a block never rewrites a slot below its
   length ([Block.instrs]), so the snapshot adds only the kinds array, one
   word per instruction.  Instruction identity is preserved across a
   rollback — the very same [Instr.t] values end up in the block — so
   id-keyed tables (consumed seeds, dependence snapshots, provenance) held
   by the caller stay meaningful.

   [protect] is the commit boundary: run a thunk; on any exception, restore
   the snapshot and return a typed {!failure} naming the pass that was
   executing.  Only [Out_of_memory], [Sys.Break] and the service's
   [Budget.Deadline_expired] (restored first) escape — everything else,
   including [Stack_overflow] and assertion failures, degrades the region
   instead of killing the compile. *)

open Lslp_ir

type saved_block = {
  block : Block.t;
  order : Instr.t array;       (* the block's own array, shared *)
  kinds : Instr.kind array;    (* [kinds.(k)] is the kind of [order.(k)] *)
}

type snapshot = saved_block list

(* The array starts from a static constant, never from a (young) kind: an
   array over 256 words with a young initial element costs a minor
   collection (DESIGN §14). *)
let save_block (b : Block.t) =
  let order = Block.instrs b and n = Block.length b in
  let kinds = Array.make n (Instr.Splat (Instr.Const (Instr.Cint 0L))) in
  for k = 0 to n - 1 do kinds.(k) <- order.(k).Instr.kind done;
  { block = b; order; kinds }

let snapshot_block b : snapshot = [ save_block b ]
let snapshot_func (f : Func.t) : snapshot = List.map save_block (Func.blocks f)

let restore (snap : snapshot) =
  List.iter
    (fun s ->
      Array.iteri (fun k kind -> Instr.set_kind s.order.(k) kind) s.kinds;
      Block.reinstall s.block s.order (Array.length s.kinds))
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
