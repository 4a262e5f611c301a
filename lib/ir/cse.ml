(* Local common-subexpression elimination, and the value numbering behind
   it.

   The C compilers the paper builds on (clang -O3) run early-CSE/GVN long
   before the SLP pass, so the IR the vectorizer sees has one instruction
   per distinct subexpression.  Our frontend gets there while it builds:
   [Builder.create ~value_numbering:true] asks a {!numbering} for every
   instruction it makes and gets the first equal value back instead of
   appending a duplicate.  This pass walks a built block through the same
   numbering; the pipeline runs it as its cleanup.

   Pure instructions are keyed by (kind, operands), commutative operands in
   canonical order so a*b and b*a unify.  A key is a short int array (a
   tag, a sub-code, two words per operand), mostly an array literal, looked
   up in an open-addressing table.  A load is keyed by its array, lanes,
   the array's store generation and its affine index term by term; a store
   bumps the generation, which retires the array's loads without any table
   surgery.  Names (arguments, arrays, index symbols) are numbered by a
   scan of the few a block uses, not by hashing strings. *)

module Int_table = Lslp_util.Int_table
module Key_table = Lslp_util.Key_table

type names = { mutable strs : string array; mutable n_strs : int }

let names () = { strs = [||]; n_strs = 0 }

(* A block names a handful of arguments, arrays and symbols, so a scan
   costs less than hashing the string. *)
let name_id t name =
  let rec go j =
    if j = t.n_strs then begin
      if j = Array.length t.strs then begin
        let bigger = Array.make (max 8 (2 * j)) "" in
        Array.blit t.strs 0 bigger 0 j;
        t.strs <- bigger
      end;
      t.strs.(j) <- name;
      t.n_strs <- j + 1;
      j
    end
    else if String.equal (Array.unsafe_get t.strs j) name then j
    else go (j + 1)
  in
  go 0

let put2 (w : int array) o first second =
  w.(o) <- first;
  w.(o + 1) <- second

(* A kind tag in the low three bits of the first word, the payload above it
   and in the second, so distinct values never share an encoding. *)
let put_value names w o (v : Instr.value) =
  match v with
  | Instr.Ins i -> put2 w o (i.Instr.id lsl 3) 0
  | Instr.Arg a -> put2 w o ((name_id names a.Instr.arg_name lsl 3) lor 1) 0
  | Instr.Const (Instr.Cint n) ->
    put2 w o
      ((Int64.to_int (Int64.shift_right_logical n 32) lsl 3) lor 2)
      (Int64.to_int (Int64.logand n 0xFFFFFFFFL))
  | Instr.Const (Instr.Cfloat x) ->
    let b = Int64.bits_of_float x in
    put2 w o
      ((Int64.to_int (Int64.shift_right_logical b 32) lsl 3) lor 3)
      (Int64.to_int (Int64.logand b 0xFFFFFFFFL))
  | Instr.Const (Instr.Cint32 n) -> put2 w o ((Int32.to_int n lsl 3) lor 4) 0
  | Instr.Const (Instr.Cfloat32 x) ->
    put2 w o ((Int32.to_int (Int32.bits_of_float x) lsl 3) lor 5) 0

type numbering = {
  names : names;
  mutable gens : int array;           (* store generation per array name *)
  w : int array;                      (* operand words of the key in hand *)
  available : Key_table.t;            (* key -> handle *)
  mutable firsts : Instr.value array; (* handle -> first value *)
  mutable n_firsts : int;
}

let numbering ?(size = 16) () =
  { names = names (); gens = [||]; w = [| 0; 0; 0; 0; 0; 0 |];
    available = Key_table.create (size + (size / 3) + 1);
    firsts = Array.make size (Instr.Const (Instr.Cint 0L)); n_firsts = 0 }

let unary_key t tag sub v =
  put_value t.names t.w 0 v;
  [| tag; sub; t.w.(0); t.w.(1) |]

let binary_key t tag sub ~commutative a b =
  let w = t.w in
  put_value t.names w 0 a;
  put_value t.names w 2 b;
  if commutative && (w.(0) > w.(2) || (w.(0) = w.(2) && w.(1) > w.(3))) then
    [| tag; sub; w.(2); w.(3); w.(0); w.(1) |]
  else [| tag; sub; w.(0); w.(1); w.(2); w.(3) |]

let gen_of t base =
  if base >= Array.length t.gens then begin
    let bigger = Array.make (max 16 (2 * (base + 1))) 0 in
    Array.blit t.gens 0 bigger 0 (Array.length t.gens);
    t.gens <- bigger
  end;
  t.gens.(base)

(* [tag; array; lanes; generation; const; term count; symbol and coefficient
   per term], then, when [masked], the mask and passthrough words already in
   [w].  Affine terms are canonical, so equal indices give equal words. *)
let rec put_terms names k o = function
  | [] -> ()
  | (s, coeff) :: rest ->
    k.(o) <- name_id names s;
    k.(o + 1) <- coeff;
    put_terms names k (o + 2) rest

let address_key t tag (a : Instr.address) ~masked =
  let base = name_id t.names a.Instr.base in
  let terms = Affine.terms a.Instr.index in
  let n = List.length terms in
  let k = Array.make (6 + (2 * n) + if masked then 4 else 0) 0 in
  k.(0) <- tag;
  k.(1) <- base;
  k.(2) <- a.Instr.access_lanes;
  k.(3) <- gen_of t base;
  k.(4) <- Affine.const_part a.Instr.index;
  k.(5) <- n;
  put_terms t.names k 6 terms;
  if masked then Array.blit t.w 0 k (6 + (2 * n)) 4;
  k

(* The key of a pure instruction; [[||]] (never a valid key) for stores,
   which bump their array's generation instead. *)
let instr_key t (i : Instr.t) =
  match i.Instr.kind with
  | Instr.Binop (op, a, b) ->
    binary_key t 10 (Opcode.binop_code op)
      ~commutative:(Opcode.is_commutative op) a b
  | Instr.Unop (op, a) -> unary_key t 11 (Opcode.unop_code op) a
  | Instr.Load a -> address_key t 12 a ~masked:false
  | Instr.Splat a -> unary_key t 13 0 a
  | Instr.Buildvec vs ->
    let k = Array.make (2 + (2 * List.length vs)) 14 in
    List.iteri (fun j v -> put_value t.names k (2 + (2 * j)) v) vs;
    k
  | Instr.Extract (a, lane) -> unary_key t 15 lane a
  | Instr.Reduce (op, a) -> unary_key t 16 (Opcode.binop_code op) a
  | Instr.Shuffle (a, idx) ->
    let n = List.length idx in
    let k = Array.make (4 + n) 17 in
    k.(1) <- n;
    List.iteri (fun j x -> k.(2 + j) <- x) idx;
    put_value t.names k (2 + n) a;
    k
  | Instr.Cmp (op, a, b) ->
    (* only the symmetric predicates get a canonical operand order *)
    binary_key t 18 (Opcode.cmp_code op)
      ~commutative:(Opcode.cmp_is_commutative op) a b
  | Instr.Select (m, a, b) ->
    let w = t.w in
    put_value t.names w 0 m;
    put_value t.names w 2 a;
    put_value t.names w 4 b;
    [| 19; 0; w.(0); w.(1); w.(2); w.(3); w.(4); w.(5) |]
  | Instr.Masked_load (a, m, p) ->
    (* like Load, plus the mask and passthrough operands *)
    put_value t.names t.w 0 m;
    put_value t.names t.w 2 p;
    address_key t 20 a ~masked:true
  | Instr.Store (a, _) | Instr.Masked_store (a, _, _) ->
    let base = name_id t.names a.Instr.base in
    let gen = gen_of t base in
    t.gens.(base) <- gen + 1;
    [||]

let find_or_add t i =
  let key = instr_key t i and fresh = t.n_firsts in
  let h =
    if Array.length key = 0 then -1
    else Key_table.find_or_add t.available key fresh
  in
  if h <> fresh then h
  else begin
    if fresh = Array.length t.firsts then begin
      let bigger =
        Array.make (max 16 (2 * fresh)) (Instr.Const (Instr.Cint 0L))
      in
      Array.blit t.firsts 0 bigger 0 fresh;
      t.firsts <- bigger
    end;
    t.firsts.(fresh) <- Instr.Ins i;
    t.n_firsts <- fresh + 1;
    -1
  end

let first t h = t.firsts.(h)

let run_block block =
  let t = numbering ~size:(Block.length block) () in
  (* dead id -> handle, made at the first duplicate *)
  let dead = ref None in
  let subst (v : Instr.value) =
    match (v, !dead) with
    | Instr.Ins i, Some tbl -> (
      match Int_table.get tbl i.Instr.id ~absent:(-1) with
      | -1 -> v
      | h -> first t h)
    | (Instr.Ins _ | Instr.Const _ | Instr.Arg _), _ -> v
  in
  let replaced =
    Block.fold
      (fun acc i ->
        if Option.is_some !dead then Instr.map_operands subst i;
        match (find_or_add t i, !dead) with
        | -1, _ -> acc
        | h, Some tbl -> Int_table.set tbl i.Instr.id h; i.Instr.id :: acc
        | h, None ->
          let tbl = Int_table.create 16 in
          dead := Some tbl;
          Int_table.set tbl i.Instr.id h;
          i.Instr.id :: acc)
      [] block
  in
  if replaced <> [] then Block.remove_ids block replaced;
  List.length replaced

(* Blocks are self-contained regions, so per-block CSE is complete; a loop
   body additionally re-executes, but availability within one iteration is
   still sound because the pass never moves an instruction. *)
let run (f : Func.t) =
  List.fold_left (fun acc b -> acc + run_block b) 0 (Func.blocks f)
