(* A kernel function: named arguments plus an ordered list of basic blocks.

   The paper's algorithm requires every vectorizable group to live in a
   single basic block; the function is a minimal structured skeleton around
   such blocks — straight-line blocks linked by fallthrough plus counted
   loop blocks (no phis: loop state lives in memory, the only loop-carried
   value is the counter symbol inside a Loop block's addresses).  Regions
   are self-contained: an instruction may only be referenced from its own
   block (the verifier enforces this), so every analysis stays block-local.
   Array arguments are assumed pairwise non-aliasing (they model distinct
   global arrays / restrict pointers). *)

type t = {
  fname : string;
  args : Instr.arg list;
  ids : Lslp_util.Id_gen.t;       (* numbers this function's instructions *)
  mutable blocks : Block.t list;  (* execution order; never empty *)
}

let create ~name ~args =
  let ids = Lslp_util.Id_gen.create ~first:1 () in
  { fname = name; args; ids; blocks = [ Block.create ~ids ~label:"entry" () ] }

let entry f =
  match f.blocks with
  | b :: _ -> b
  | [] -> invalid_arg "Func.entry: function has no blocks"

let blocks f = f.blocks

(* A block numbered by another function's source could repeat its ids. *)
let check_ids f b =
  if Block.ids b != f.ids then
    invalid_arg "Func: block does not share the function's id source"

let add_block f b =
  check_ids f b;
  f.blocks <- f.blocks @ [ b ]

(* Replace [old_b] by a sequence of blocks, preserving position — the
   unroller's splice primitive. *)
let replace_block f old_b news =
  List.iter (check_ids f) news;
  let rec go = function
    | [] -> invalid_arg "Func.replace_block: block not in function"
    | b :: rest when b == old_b -> news @ rest
    | b :: rest -> b :: go rest
  in
  f.blocks <- go f.blocks

let iter_instrs g f = List.iter (fun b -> Block.iter g b) f.blocks
let fold_instrs g acc f = List.fold_left (fun a b -> Block.fold g a b) acc f.blocks
let num_instrs f = List.fold_left (fun a b -> a + Block.length b) 0 f.blocks

let rec find_named name = function
  | [] -> None
  | (a : Instr.arg) :: rest ->
    if String.equal a.arg_name name then Some a else find_named name rest

let find_arg f name = find_named name f.args

let int_args f =
  List.filter
    (fun (a : Instr.arg) ->
      match a.arg_ty with
      | Int_arg -> true
      | Float_arg | Array_arg _ -> false)
    f.args

let clone f =
  (* Deep-copy every block so a pass can be run destructively on the copy
     while the original stays intact (used to compare scalar vs vectorized
     code).  The copy's id source starts where the original's stands, so
     every clone of one function numbers alike.  The remap table is
     function-wide and indexed by id; an operand is remapped only when it
     is the very instruction recorded there, because an instruction of
     another function may carry the same id. *)
  let ids = Lslp_util.Id_gen.create ~first:(Lslp_util.Id_gen.peek f.ids) () in
  let copies = Array.make (Lslp_util.Id_gen.peek f.ids) None in
  let remap_value (v : Instr.value) =
    match v with
    | Instr.Ins i when i.Instr.id < Array.length copies -> (
      match copies.(i.Instr.id) with
      | Some (orig, i') when orig == i -> Instr.Ins i'
      | Some _ | None -> v (* an instruction outside the function *))
    | Instr.Ins _ | Instr.Const _ | Instr.Arg _ -> v
  in
  let clone_block b =
    let b' = Block.create ~ids ~label:(Block.label b) ~kind:(Block.kind b) () in
    Block.iter
      (fun (i : Instr.t) ->
        let i' = Instr.copy ~ids i in
        copies.(i.id) <- Some (i, i');
        Block.append b' i')
      b;
    b'
  in
  let g =
    { fname = f.fname; args = f.args; ids;
      blocks = List.map clone_block f.blocks }
  in
  iter_instrs (fun i -> Instr.map_operands remap_value i) g;
  g
