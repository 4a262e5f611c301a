(* Target cost model (TTI stand-in).

   Mirrors the role of LLVM's target-transformation interface for the Intel
   Skylake/AVX2 target the paper evaluates on.  The table is calibrated so
   that the worked examples in the paper come out with the exact group costs
   it prints (Figures 2-4): a scalar ALU op and its 2/4-wide vector
   counterpart both cost 1 (so a 2-wide ALU group saves 1), gathering k
   scalars into a vector costs k, a vector of constants is free, and so on.

   Two tables live here, on purpose:

   - [tti]: what the vectorizer queries for profitability decisions;
   - [machine]: what the execution simulator charges per executed
     instruction.

   They differ in a few documented entries.  This reproduces, structurally,
   the cost-model/performance inconsistencies the paper reports in Section
   5.2 (e.g. 433.mult-su2-mat, 453.quartic-cylinder): a vectorization that
   TTI calls profitable can still lose cycles on the "machine". *)

open Lslp_ir

type op_costs = {
  scalar : int;          (* cost of the scalar instruction *)
  vector : int -> int;   (* cost of the n-wide vector instruction *)
}

type t = {
  target_name : string;
  vector_bits : int;                    (* SIMD register width *)
  binop_cost : Opcode.binop -> op_costs;
  unop_cost : Opcode.unop -> op_costs;
  load_cost : op_costs;
  store_cost : op_costs;
  cmp_cost : op_costs;                  (* lane compare producing a mask *)
  select_cost : op_costs;               (* per-lane blend on an i1 mask *)
  masked_load_cost : op_costs;          (* predicated load *)
  masked_store_cost : op_costs;         (* predicated store *)
  insert_element : int;                 (* scalar -> vector lane insertion *)
  insert_element_alu : int;             (* insertion of an ALU-produced value
                                           (register-domain crossing) *)
  extract_element : int;                (* vector lane -> scalar *)
  splat : int;                          (* broadcast *)
  shuffle : int;                        (* single-source lane permutation *)
  horizontal_reduce : int -> int;       (* n-lane reduction to a scalar *)
}

let max_lanes t (elt : Types.scalar) =
  t.vector_bits / (8 * Types.scalar_size_bytes elt)

let alu = { scalar = 1; vector = (fun _ -> 1) }

(* Skylake-flavoured relative costs, in the spirit of LLVM 4.0's x86 TTI
   tables: cheap ALU/shift/FP-mul-add, expensive division, vector integer
   division not supported natively (scalarized: n scalar divs + n extracts +
   n inserts). *)
let skylake_binop op =
  match op with
  | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.And | Opcode.Or
  | Opcode.Xor | Opcode.Shl | Opcode.Lshr | Opcode.Ashr | Opcode.Smin
  | Opcode.Smax -> alu
  | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fmin | Opcode.Fmax -> alu
  | Opcode.Fdiv -> { scalar = 7; vector = (fun n -> 7 + (n / 4)) }
  | Opcode.Sdiv | Opcode.Srem ->
    { scalar = 14; vector = (fun n -> n * 16) (* scalarized *) }

let skylake_unop op =
  match op with
  | Opcode.Neg | Opcode.Fneg | Opcode.Fabs -> alu
  | Opcode.Fsqrt -> { scalar = 12; vector = (fun n -> 12 + (n / 4)) }

let skylake_avx2 =
  {
    target_name = "skylake-avx2 (tti)";
    vector_bits = 256;
    binop_cost = skylake_binop;
    unop_cost = skylake_unop;
    load_cost = alu;
    store_cost = alu;
    (* cmp/blend are plain ALU ops (vcmppd/vblendvpd); the masked memory ops
       (vmaskmovpd) pay an extra cycle over their unconditional forms, and
       their scalar fallback pays the same 2 for its compare+branch — so a
       4-lane masked group still beats 4 scalar guarded accesses. *)
    cmp_cost = alu;
    select_cost = alu;
    masked_load_cost = { scalar = 2; vector = (fun _ -> 2) };
    masked_store_cost = { scalar = 2; vector = (fun _ -> 2) };
    insert_element = 1;
    insert_element_alu = 1;
    extract_element = 1;
    splat = 1;
    shuffle = 1;
    (* log2(n) shuffle+op steps, as in LLVM's horizontal reductions *)
    horizontal_reduce =
      (fun n ->
        let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
        1 + log2 n);
  }

(* The "machine" table: identical to TTI except that inserting an
   ALU-produced value into a vector lane costs 2 instead of 1.  This models
   the register-domain crossing + port-5 shuffle pressure real Skylake pays
   for vpinsrq-from-register (an insert from a just-loaded value merges from
   memory instead), an effect LLVM 4.0's TTI did not see.  It reproduces,
   structurally, the paper's §5.2 observation that a vectorization the cost
   model calls profitable can still lose on the machine when the graph
   gathers computed (non-load) scalars. *)
let skylake_machine =
  {
    skylake_avx2 with
    target_name = "skylake-avx2 (machine)";
    insert_element_alu = 2;
  }

(* A width-128 target (SSE-like) used by tests and ablations. *)
let sse_like =
  { skylake_avx2 with target_name = "sse-like"; vector_bits = 128 }

(* Cost of aggregating the given scalar operand values into a vector: the
   paper's gather cost.  All-constant vectors are free (they are
   materialized like scalar constants); a splat costs one broadcast; the
   general case pays one insertion per lane. *)
type gather_kind = Gather_free | Gather_splat | Gather_insert

let insert_cost_of_value t (v : Instr.value) =
  match v with
  | Instr.Ins i when not (Instr.is_load i) -> t.insert_element_alu
  | Instr.Ins _ | Instr.Const _ | Instr.Arg _ -> t.insert_element

let rec lanes_const (values : Instr.value array) j =
  j >= Array.length values
  ||
  match values.(j) with
  | Instr.Const _ -> lanes_const values (j + 1)
  | Instr.Arg _ | Instr.Ins _ -> false

let rec lanes_same (values : Instr.value array) j =
  j >= Array.length values
  || (Instr.equal_value values.(0) values.(j) && lanes_same values (j + 1))

let classify_gather (values : Instr.value array) =
  if lanes_const values 0 then Gather_free
  else if lanes_same values 1 then Gather_splat
  else Gather_insert

let gather_cost_lanes t (values : Instr.value array) =
  match classify_gather values with
  | Gather_free -> 0
  | Gather_splat -> t.splat
  | Gather_insert ->
    let c = ref 0 in
    for j = 0 to Array.length values - 1 do
      c := !c + insert_cost_of_value t values.(j)
    done;
    !c

let gather_cost t values = gather_cost_lanes t (Array.of_list values)

let scalar_instr_cost t (i : Instr.t) =
  match i.kind with
  | Instr.Binop (op, _, _) -> (t.binop_cost op).scalar
  | Instr.Unop (op, _) -> (t.unop_cost op).scalar
  | Instr.Load _ -> t.load_cost.scalar
  | Instr.Store _ -> t.store_cost.scalar
  | Instr.Cmp _ -> t.cmp_cost.scalar
  | Instr.Select _ -> t.select_cost.scalar
  | Instr.Masked_load _ -> t.masked_load_cost.scalar
  | Instr.Masked_store _ -> t.masked_store_cost.scalar
  | Instr.Splat _ -> t.splat
  | Instr.Buildvec vs -> gather_cost t vs
  | Instr.Extract _ -> t.extract_element
  | Instr.Reduce (_, v) ->
    t.horizontal_reduce
      (match Instr.value_ty v with Some ty -> Types.lanes ty | None -> 1)
  | Instr.Shuffle _ -> t.shuffle

(* Cost of one executed instruction, scalar or vector — the simulator's
   charge. *)
let instr_cost t (i : Instr.t) =
  let lanes_of ty = Types.lanes ty in
  match i.kind with
  | Instr.Binop (op, _, _) ->
    let c = t.binop_cost op in
    let n = lanes_of i.ty in
    if n > 1 then c.vector n else c.scalar
  | Instr.Unop (op, _) ->
    let c = t.unop_cost op in
    let n = lanes_of i.ty in
    if n > 1 then c.vector n else c.scalar
  | Instr.Load a ->
    if a.access_lanes > 1 then t.load_cost.vector a.access_lanes
    else t.load_cost.scalar
  | Instr.Store (a, _) ->
    if a.access_lanes > 1 then t.store_cost.vector a.access_lanes
    else t.store_cost.scalar
  | Instr.Cmp _ ->
    let n = lanes_of i.ty in
    if n > 1 then t.cmp_cost.vector n else t.cmp_cost.scalar
  | Instr.Select _ ->
    let n = lanes_of i.ty in
    if n > 1 then t.select_cost.vector n else t.select_cost.scalar
  | Instr.Masked_load (a, _, _) ->
    if a.access_lanes > 1 then t.masked_load_cost.vector a.access_lanes
    else t.masked_load_cost.scalar
  | Instr.Masked_store (a, _, _) ->
    if a.access_lanes > 1 then t.masked_store_cost.vector a.access_lanes
    else t.masked_store_cost.scalar
  | Instr.Splat _ -> t.splat
  | Instr.Buildvec vs -> gather_cost t vs
  | Instr.Extract _ -> t.extract_element
  | Instr.Reduce (_, v) ->
    t.horizontal_reduce
      (match Instr.value_ty v with Some ty -> Types.lanes ty | None -> 1)
  | Instr.Shuffle _ -> t.shuffle

let vector_group_cost t (i : Instr.t) ~lanes =
  match i.kind with
  | Instr.Binop (op, _, _) -> (t.binop_cost op).vector lanes
  | Instr.Unop (op, _) -> (t.unop_cost op).vector lanes
  | Instr.Load _ -> t.load_cost.vector lanes
  | Instr.Store _ -> t.store_cost.vector lanes
  | Instr.Cmp _ -> t.cmp_cost.vector lanes
  | Instr.Select _ -> t.select_cost.vector lanes
  | Instr.Masked_load _ -> t.masked_load_cost.vector lanes
  | Instr.Masked_store _ -> t.masked_store_cost.vector lanes
  | Instr.Splat _ | Instr.Buildvec _ | Instr.Extract _ | Instr.Reduce _
  | Instr.Shuffle _ ->
    invalid_arg "vector_group_cost: not a scalar instruction"
