(* Dead code elimination.

   After SLP/LSLP code generation replaces a tree of scalar instructions with
   vector ones, the scalars become dead (their stores were removed
   explicitly); this pass sweeps them, whole dead trees included.

   One sweep over one arena: the arena's CSR counts give every
   instruction's use count, the side-effect-free instructions with none
   seed a worklist, and removing an instruction releases one use of each
   of its operands, pushing any that reach zero.  Removal is confluent, so
   this deletes exactly the instructions the old fixed point (recount the
   uses, drop every unused instruction, repeat until nothing changes)
   deleted, in O(n + uses) instead of one arena per round; the survivors
   keep their order.  Instruction ids are unique within a block (the
   verifier enforces it), so an arena index names one instruction. *)

let run_block block =
  let arena = Arena.of_block block in
  let n = Arena.size arena in
  let unused k =
    Arena.num_uses arena k = 0 && not (Instr.has_side_effect (Arena.instr arena k))
  in
  let rec first_unused k = if k >= n || unused k then k else first_unused (k + 1) in
  match first_unused 0 with
  | k0 when k0 = n -> 0 (* nothing dead: no worklist state is allocated *)
  | k0 ->
    let uses = Array.init n (Arena.num_uses arena) in
    let dead = Bytes.make n '\000' in
    let stack = Array.make n 0 and top = ref 0 in
    let kill k =
      Bytes.unsafe_set dead k '\001';
      stack.(!top) <- k;
      incr top
    in
    for k = k0 to n - 1 do
      if unused k then kill k
    done;
    let release (v : Instr.value) =
      match v with
      | Instr.Ins def ->
        let j = Arena.idx_of_id arena def.Instr.id in
        if j >= 0 then begin
          uses.(j) <- uses.(j) - 1;
          if uses.(j) = 0 && not (Instr.has_side_effect (Arena.instr arena j))
          then kill j
        end
      | Instr.Const _ | Instr.Arg _ -> ()
    in
    let removed = ref 0 in
    while !top > 0 do
      decr top;
      incr removed;
      Instr.iter_operands release (Arena.instr arena stack.(!top))
    done;
    (* the arena was built on the block as it stands: index = position *)
    Block.filteri block (fun k _ -> Bytes.unsafe_get dead k = '\000');
    !removed

(* Blocks are self-contained regions (no cross-block uses), so a per-block
   sweep is a complete function-level DCE. *)
let run (f : Func.t) =
  List.fold_left (fun acc b -> acc + run_block b) 0 (Func.blocks f)
