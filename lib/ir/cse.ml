(* Local common-subexpression elimination.

   The C compilers the paper builds on (clang -O3) run early-CSE/GVN long
   before the SLP pass, so the IR the vectorizer sees has one instruction
   per distinct subexpression.  Our frontend lowers each textual occurrence
   separately; this pass restores the canonical form.

   Pure instructions are keyed by (kind, operands) — commutative operands in
   canonical (sorted) order, so a*b and b*a unify.  Keys are short int
   arrays (a tag plus payload words per element) looked up in an
   open-addressing table, not `Fmt.str`-built strings: this pass runs on
   every frontend compile and again as pipeline cleanup, so key building is
   hot.  Loads are keyed by (array, affine shape, offset, lanes, store
   generation of the array), with array and shape numbered by the same
   [Addr_intern] the arena uses; a store bumps the array's generation, which
   retires all its available loads without any table surgery.  Single
   forward pass (the block is straight-line). *)

module Int_table = Lslp_util.Int_table
module Key_table = Lslp_util.Key_table
module Intern = Lslp_util.Intern

type ctx = {
  names : Intern.t;          (* arg names *)
  addrs : Addr_intern.t;     (* array bases and affine shapes *)
  mutable gens : int array;  (* store generation per base id *)
}

(* Per-value encoding: three words [tag; p1; p2] written at [k.(o)],
   injective across value kinds (same distinctions the old string keys
   drew). *)
let put (k : int array) o tag p1 p2 =
  k.(o) <- tag;
  k.(o + 1) <- p1;
  k.(o + 2) <- p2

let put_value ctx k o (v : Instr.value) =
  match v with
  | Instr.Ins i -> put k o 0 i.Instr.id 0
  | Instr.Arg a -> put k o 1 (Intern.intern ctx.names a.Instr.arg_name) 0
  | Instr.Const (Instr.Cint n) ->
    put k o 2 (Int64.to_int (Int64.shift_right_logical n 32))
      (Int64.to_int (Int64.logand n 0xFFFFFFFFL))
  | Instr.Const (Instr.Cfloat x) ->
    let b = Int64.bits_of_float x in
    put k o 3 (Int64.to_int (Int64.shift_right_logical b 32))
      (Int64.to_int (Int64.logand b 0xFFFFFFFFL))
  | Instr.Const (Instr.Cint32 n) -> put k o 4 (Int32.to_int n) 0
  | Instr.Const (Instr.Cfloat32 x) ->
    put k o 5 (Int32.to_int (Int32.bits_of_float x)) 0

(* Canonical order for a commutative pair: the value words at [o] and
   [o + 3] swapped when the second triple sorts first. *)
let sort_pair (k : int array) o =
  let c =
    if k.(o) <> k.(o + 3) then Int.compare k.(o) k.(o + 3)
    else if k.(o + 1) <> k.(o + 4) then Int.compare k.(o + 1) k.(o + 4)
    else Int.compare k.(o + 2) k.(o + 5)
  in
  if c > 0 then
    for w = o to o + 2 do
      let x = k.(w) in
      k.(w) <- k.(w + 3);
      k.(w + 3) <- x
    done

(* [tag; sub] then three words per value. *)
let values_key ctx tag sub (vs : Instr.value list) =
  let k = Array.make (2 + (3 * List.length vs)) 0 in
  k.(0) <- tag;
  k.(1) <- sub;
  List.iteri (fun j v -> put_value ctx k (2 + (3 * j)) v) vs;
  k

let unary_key ctx tag sub v =
  let k = Array.make 5 0 in
  k.(0) <- tag;
  k.(1) <- sub;
  put_value ctx k 2 v;
  k

let binary_key ctx tag sub ~commutative a b =
  let k = Array.make 8 0 in
  k.(0) <- tag;
  k.(1) <- sub;
  put_value ctx k 2 a;
  put_value ctx k 5 b;
  if commutative then sort_pair k 2;
  k

let gen_of ctx base =
  if base >= Array.length ctx.gens then begin
    let bigger = Array.make (max 16 (2 * (base + 1))) 0 in
    Array.blit ctx.gens 0 bigger 0 (Array.length ctx.gens);
    ctx.gens <- bigger
  end;
  ctx.gens.(base)

let bump_gen ctx base =
  ignore (gen_of ctx base);
  ctx.gens.(base) <- ctx.gens.(base) + 1

(* [tag; base; shape; const; lanes; generation], then [extra] free words *)
let address_key ctx tag (a : Instr.address) extra =
  let k = Array.make (6 + extra) 0 in
  let base = Addr_intern.base ctx.addrs a.Instr.base in
  k.(0) <- tag;
  k.(1) <- base;
  k.(2) <- Addr_intern.shape ctx.addrs a.Instr.index;
  k.(3) <- Affine.const_part a.Instr.index;
  k.(4) <- a.Instr.access_lanes;
  k.(5) <- gen_of ctx base;
  k

(* The key of a pure instruction; [[||]] (never a valid key) for stores. *)
let instr_key ctx (i : Instr.t) =
  match i.Instr.kind with
  | Instr.Binop (op, a, b) ->
    binary_key ctx 10 (Opcode.binop_code op)
      ~commutative:(Opcode.is_commutative op) a b
  | Instr.Unop (op, a) -> unary_key ctx 11 (Opcode.unop_code op) a
  | Instr.Load a -> address_key ctx 12 a 0
  | Instr.Splat a -> unary_key ctx 13 0 a
  | Instr.Buildvec vs -> values_key ctx 14 0 vs
  | Instr.Extract (a, lane) -> unary_key ctx 15 lane a
  | Instr.Reduce (op, a) -> unary_key ctx 16 (Opcode.binop_code op) a
  | Instr.Shuffle (a, idx) ->
    let n = List.length idx in
    let k = Array.make (5 + n) 0 in
    k.(0) <- 17;
    k.(1) <- n;
    List.iteri (fun j x -> k.(2 + j) <- x) idx;
    put_value ctx k (2 + n) a;
    k
  | Instr.Cmp (op, a, b) ->
    (* only the symmetric predicates get a canonical operand order *)
    binary_key ctx 18 (Opcode.cmp_code op)
      ~commutative:(Opcode.cmp_is_commutative op) a b
  | Instr.Select (m, a, b) ->
    let k = Array.make 11 0 in
    k.(0) <- 19;
    put_value ctx k 2 m;
    put_value ctx k 5 a;
    put_value ctx k 8 b;
    k
  | Instr.Masked_load (a, m, p) ->
    (* like Load: keyed under the array's store generation, plus the mask
       and passthrough operands (different mask = different value) *)
    let k = address_key ctx 20 a 6 in
    put_value ctx k 6 m;
    put_value ctx k 9 p;
    k
  | Instr.Store (a, _) | Instr.Masked_store (a, _, _) ->
    bump_gen ctx (Addr_intern.base ctx.addrs a.Instr.base);
    [||]

let run_block block =
  let ctx =
    { names = Intern.create 16; addrs = Addr_intern.create (); gens = [||] }
  in
  let available = Key_table.create 64 in
  (* handles: [available] maps a key to an index into [firsts], the value
     of the first instruction computing it *)
  let firsts = ref (Array.make 64 (Instr.Const (Instr.Cint 0L))) in
  let n_firsts = ref 0 in
  let replacement = Int_table.create 16 in (* dead id -> handle *)
  let replaced = ref [] in
  let subst (v : Instr.value) =
    match v with
    | Instr.Ins i -> (
      match Int_table.get replacement i.Instr.id ~absent:(-1) with
      | -1 -> v
      | h -> !firsts.(h))
    | Instr.Const _ | Instr.Arg _ -> v
  in
  Block.iter
    (fun i ->
      Instr.map_operands subst i;
      let key = instr_key ctx i in
      if Array.length key > 0 then begin
        let fresh = !n_firsts in
        match Key_table.find_or_add available key fresh with
        | h when h = fresh ->
          if fresh >= Array.length !firsts then begin
            let bigger = Array.make (2 * fresh) !firsts.(0) in
            Array.blit !firsts 0 bigger 0 fresh;
            firsts := bigger
          end;
          !firsts.(fresh) <- Instr.Ins i;
          n_firsts := fresh + 1
        | h ->
          Int_table.set replacement i.Instr.id h;
          replaced := i.Instr.id :: !replaced
      end)
    block;
  match !replaced with
  | [] -> 0
  | ids ->
    Block.remove_ids block ids;
    List.length ids

(* Blocks are self-contained regions, so per-block CSE is complete; a loop
   body additionally re-executes, but availability within one iteration is
   still sound because the pass never moves an instruction. *)
let run (f : Func.t) =
  List.fold_left (fun acc b -> acc + run_block b) 0 (Func.blocks f)
