(* Test-only reference: dead code elimination as a fixed point, as it stood
   before the one-sweep worklist — recount the uses with a fresh arena,
   remove every unused instruction without side effects, repeat until a
   round removes nothing.  The properties in [test_upkeep] hold the
   production [Dce] to it: same count removed, same order left. *)

open Lslp_ir

let run_block block =
  let removed = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let uses = Use_info.compute block in
    let dead = Helpers.find_all (fun i -> Use_info.is_dead uses i) block in
    if dead <> [] then begin
      changed := true;
      removed := !removed + List.length dead;
      Block.remove_ids block (List.map (fun (i : Instr.t) -> i.id) dead)
    end
  done;
  !removed
