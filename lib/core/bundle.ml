(* Bundles: one candidate value per vector lane.

   [classify] implements the paper's termination conditions for growing the
   SLP graph (Section 2.3, footnote 1): the values must all be scalar
   instructions, isomorphic (same opcode class), unique, in the same basic
   block, schedulable as a unit, and not already claimed by the graph.
   Loads additionally need consecutive addresses to become a wide load. *)

open Lslp_ir
open Lslp_analysis

type t = Instr.value array

type reject_reason =
  | Not_all_instructions
  | Not_isomorphic
  | Duplicate_member
  | Different_block
  | Not_schedulable
  | Already_in_graph
  | Non_consecutive_loads
  | Unsupported_shape     (* e.g. vector-typed or effectful non-store *)

let reject_to_string = function
  | Not_all_instructions -> "not all members are instructions"
  | Not_isomorphic -> "members have different opcodes"
  | Duplicate_member -> "the same instruction appears in two lanes"
  | Different_block -> "members live in different blocks"
  | Not_schedulable -> "members depend on one another"
  | Already_in_graph -> "a member is already part of the graph"
  | Non_consecutive_loads -> "loads do not access consecutive memory"
  | Unsupported_shape -> "instruction shape is not vectorizable"

type verdict =
  | Vectorizable of Instr.t array
  | Rejected of reject_reason

let is_ins = function
  | Instr.Ins _ -> true
  | Instr.Const _ | Instr.Arg _ -> false

(* Lane [j] of a bundle already known to hold only instructions. *)
let ins (b : t) j =
  match b.(j) with
  | Instr.Ins i -> i
  | Instr.Const _ | Instr.Arg _ -> invalid_arg "Bundle: lane is not an instruction"

(* The lane walks below recurse at top level with their context passed
   along, so a classify call builds no closures. *)

(* [p x] holds of every lane from [j] on. *)
let rec for_all_with p x (b : t) j =
  j >= Array.length b || (p x (ins b j) && for_all_with p x b (j + 1))

let rec exists_ins p (b : t) j =
  j < Array.length b && (p (ins b j) || exists_ins p b (j + 1))

(* Each lane consecutive to the one before, on the arena's address table:
   [pos] holds the lanes' compact indices, all in the arena. *)
let rec adjacent_from ar pos j =
  j >= Array.length pos - 1
  || (Arena.consecutive ar pos.(j) pos.(j + 1) && adjacent_from ar pos (j + 1))

let adjacent_run ar pos =
  Array.length pos = 0 || (Arena.is_memory ar pos.(0) && adjacent_from ar pos 0)

(* Shapes the code generator knows how to widen. *)
let widenable (i : Instr.t) =
  match i.kind with
  | Instr.Binop _ | Instr.Unop _ | Instr.Load _ | Instr.Store _
  | Instr.Cmp _ | Instr.Select _ | Instr.Masked_load _
  | Instr.Masked_store _ ->
    not (Types.is_vector i.ty)
  | Instr.Splat _ | Instr.Buildvec _ | Instr.Extract _ | Instr.Reduce _
  | Instr.Shuffle _ -> false

let rec has_duplicates (b : t) i j =
  if i >= Array.length b then false
  else if j >= Array.length b then has_duplicates b (i + 1) (i + 2)
  else Instr.equal (ins b i) (ins b j) || has_duplicates b i (j + 1)

(* No lane transitively depends on another: [pos] holds the lanes'
   positions in the dependence graph's arena, read against its bit-packed
   closure. *)
let rec unreached deps pos i j =
  if i >= Array.length pos then true
  else if j >= Array.length pos then unreached deps pos (i + 1) 0
  else
    let p = pos.(i) and q = pos.(j) in
    (p = q || not (Depgraph.reaches deps p q)) && unreached deps pos i (j + 1)

(* The checks run on the bundle in place; "same block" is membership in
   the dependence graph's arena, which describes the block being grown.
   Each lane's arena position is looked up once, and the instruction array
   is built only for a vectorizable verdict. *)
let classify ~(deps : Depgraph.t) ~(in_graph : Instr.t -> bool) (b : t) :
    verdict =
  let ar = Depgraph.arena deps in
  if not (Array.for_all is_ins b) then Rejected Not_all_instructions
  else if exists_ins (fun i -> not (widenable i)) b 0 then
    Rejected Unsupported_shape
  else if not (for_all_with Instr.same_opclass (ins b 0) b 0) then
    Rejected Not_isomorphic
  else if has_duplicates b 0 1 then Rejected Duplicate_member
  else if not (for_all_with Arena.mem ar b 0) then Rejected Different_block
  else if exists_ins in_graph b 0 then Rejected Already_in_graph
  else
    let n = Array.length b in
    let pos = Array.make n (-1) in
    for j = 0 to n - 1 do
      pos.(j) <- Arena.idx ar (ins b j)
    done;
    if not (unreached deps pos 0 0) then Rejected Not_schedulable
    else
      let insts = Array.make n (ins b 0) in
      for j = 1 to n - 1 do
        insts.(j) <- ins b j
      done;
      let i0 = insts.(0) in
      if (Instr.is_load i0 || Instr.is_store i0) && not (adjacent_run ar pos)
      then Rejected Non_consecutive_loads
      else Vectorizable insts

let of_insts insts = Array.map (fun i -> Instr.Ins i) insts

(* Operand [index] of [i], in [Instr.operands] order, without building the
   operand list. *)
let operand (i : Instr.t) index =
  let out_of_range () =
    invalid_arg "Bundle.operand_column: operand index out of range"
  in
  match (i.kind, index) with
  | (Instr.Binop (_, a, _) | Instr.Cmp (_, a, _)), 0
  | (Instr.Binop (_, _, a) | Instr.Cmp (_, _, a)), 1
  | ( ( Instr.Unop (_, a) | Instr.Splat a | Instr.Extract (a, _)
      | Instr.Reduce (_, a) | Instr.Shuffle (a, _) | Instr.Store (_, a) ),
      0 )
  | Instr.Select (a, _, _), 0
  | Instr.Select (_, a, _), 1
  | Instr.Select (_, _, a), 2
  | Instr.Masked_load (_, a, _), 0
  | Instr.Masked_load (_, _, a), 1
  | Instr.Masked_store (_, a, _), 0
  | Instr.Masked_store (_, _, a), 1 -> a
  | Instr.Buildvec vs, k when k >= 0 -> (
    match List.nth_opt vs k with Some a -> a | None -> out_of_range ())
  | ( ( Instr.Binop _ | Instr.Cmp _ | Instr.Unop _ | Instr.Splat _
      | Instr.Extract _ | Instr.Reduce _ | Instr.Shuffle _ | Instr.Store _
      | Instr.Select _ | Instr.Masked_load _ | Instr.Masked_store _
      | Instr.Load _ | Instr.Buildvec _ ),
      _ ) -> out_of_range ()

let operand_column (insts : Instr.t array) ~index : t =
  Array.map (fun i -> operand i index) insts

let pp ppf (b : t) =
  Fmt.pf ppf "[%a]"
    Fmt.(array ~sep:comma Lslp_ir.Printer.pp_value)
    b
