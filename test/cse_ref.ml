(* Test-only reference: local CSE as it stood before the keys were written
   straight into their arrays — operand triples built as a list of tuples,
   commutative operands ordered by [List.sort], one [Key_table.get] then
   one [Key_table.set] per key.  The properties in [test_upkeep] hold the
   production [Cse] to it: same instructions removed, same operands left
   behind. *)

open Lslp_ir
module Int_table = Lslp_util.Int_table
module Key_table = Lslp_util.Key_table
module Intern = Lslp_util.Intern

(* Per-value encoding: three words [tag; p1; p2], injective across value
   kinds (same distinctions the old string keys drew). *)
let value_words (names : Intern.t) (v : Instr.value) =
  match v with
  | Instr.Ins i -> (0, i.Instr.id, 0)
  | Instr.Arg a -> (1, Intern.intern names a.Instr.arg_name, 0)
  | Instr.Const (Instr.Cint n) ->
    (2, Int64.to_int (Int64.shift_right_logical n 32),
     Int64.to_int (Int64.logand n 0xFFFFFFFFL))
  | Instr.Const (Instr.Cfloat x) ->
    let b = Int64.bits_of_float x in
    (3, Int64.to_int (Int64.shift_right_logical b 32),
     Int64.to_int (Int64.logand b 0xFFFFFFFFL))
  | Instr.Const (Instr.Cint32 n) -> (4, Int32.to_int n, 0)
  | Instr.Const (Instr.Cfloat32 x) -> (5, Int32.to_int (Int32.bits_of_float x), 0)

let compare_triple (a, b, c) (a', b', c') =
  if a <> a' then Int.compare a a'
  else if b <> b' then Int.compare b b'
  else Int.compare c c'

let key_of_triples tag sub triples =
  let n = List.length triples in
  let k = Array.make (2 + (3 * n)) 0 in
  k.(0) <- tag;
  k.(1) <- sub;
  List.iteri
    (fun j (a, b, c) ->
      k.(2 + (3 * j)) <- a;
      k.(3 + (3 * j)) <- b;
      k.(4 + (3 * j)) <- c)
    triples;
  k

type ctx = {
  names : Intern.t;          (* arg names *)
  addrs : Addr_intern.t;     (* array bases and affine shapes *)
  mutable gens : int array;  (* store generation per base id *)
}

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

let address_words ctx (a : Instr.address) =
  let base = Addr_intern.base ctx.addrs a.Instr.base in
  let shape = Addr_intern.shape ctx.addrs a.Instr.index in
  (base, shape, Affine.const_part a.Instr.index, a.Instr.access_lanes)

let instr_key ctx (i : Instr.t) =
  let triples () = List.map (value_words ctx.names) (Instr.operands i) in
  match i.Instr.kind with
  | Instr.Binop (op, _, _) ->
    let ops = triples () in
    let ops =
      if Opcode.is_commutative op then List.sort compare_triple ops else ops
    in
    Some (key_of_triples 10 (Opcode.binop_code op) ops)
  | Instr.Unop (op, _) -> Some (key_of_triples 11 (Opcode.unop_code op) (triples ()))
  | Instr.Load a ->
    let base, shape, const, lanes = address_words ctx a in
    Some [| 12; base; shape; const; lanes; gen_of ctx base |]
  | Instr.Splat _ -> Some (key_of_triples 13 0 (triples ()))
  | Instr.Buildvec _ -> Some (key_of_triples 14 0 (triples ()))
  | Instr.Extract (_, lane) -> Some (key_of_triples 15 lane (triples ()))
  | Instr.Reduce (op, _) ->
    Some (key_of_triples 16 (Opcode.binop_code op) (triples ()))
  | Instr.Shuffle (_, idx) ->
    let ops = triples () in
    let n = List.length idx in
    let k = Array.make (2 + n + (3 * List.length ops)) 0 in
    k.(0) <- 17;
    k.(1) <- n;
    List.iteri (fun j x -> k.(2 + j) <- x) idx;
    List.iteri
      (fun j (a, b, c) ->
        k.(2 + n + (3 * j)) <- a;
        k.(3 + n + (3 * j)) <- b;
        k.(4 + n + (3 * j)) <- c)
      ops;
    Some k
  | Instr.Cmp (op, _, _) ->
    (* only the symmetric predicates get a canonical operand order *)
    let ops = triples () in
    let ops =
      if Opcode.cmp_is_commutative op then List.sort compare_triple ops
      else ops
    in
    Some (key_of_triples 18 (Opcode.cmp_code op) ops)
  | Instr.Select _ -> Some (key_of_triples 19 0 (triples ()))
  | Instr.Masked_load (a, _, _) ->
    (* like Load: keyed under the array's store generation, plus the mask
       and passthrough operands (different mask = different value) *)
    let base, shape, const, lanes = address_words ctx a in
    let ops = triples () in
    let k = Array.make (6 + (3 * List.length ops)) 0 in
    k.(0) <- 20;
    k.(1) <- base;
    k.(2) <- shape;
    k.(3) <- const;
    k.(4) <- lanes;
    k.(5) <- gen_of ctx base;
    List.iteri
      (fun j (x, y, z) ->
        k.(6 + (3 * j)) <- x;
        k.(7 + (3 * j)) <- y;
        k.(8 + (3 * j)) <- z)
      ops;
    Some k
  | Instr.Store _ | Instr.Masked_store _ -> None

let run_block block =
  let ctx =
    { names = Intern.create 16; addrs = Addr_intern.create (); gens = [||] }
  in
  let available = Key_table.create 64 in
  (* handles: available maps key -> index into [firsts] *)
  let firsts : Instr.t option array ref = ref (Array.make 64 None) in
  let n_firsts = ref 0 in
  let register i =
    if !n_firsts >= Array.length !firsts then begin
      let bigger = Array.make (2 * Array.length !firsts) None in
      Array.blit !firsts 0 bigger 0 !n_firsts;
      firsts := bigger
    end;
    !firsts.(!n_firsts) <- Some i;
    incr n_firsts;
    !n_firsts - 1
  in
  let replacement = Int_table.create 16 in (* dead id -> handle *)
  let replaced : Instr.t list ref = ref [] in
  let subst (v : Instr.value) =
    match v with
    | Instr.Ins i -> (
      match Int_table.get replacement i.Instr.id ~absent:(-1) with
      | -1 -> v
      | h -> Instr.Ins (Option.get !firsts.(h)))
    | Instr.Const _ | Instr.Arg _ -> v
  in
  Block.iter
    (fun i ->
      Instr.map_operands subst i;
      match instr_key ctx i with
      | None -> (
        match i.Instr.kind with
        | Instr.Store (addr, _) | Instr.Masked_store (addr, _, _) ->
          bump_gen ctx (Addr_intern.base ctx.addrs addr.Instr.base)
        | Instr.Binop _ | Instr.Unop _ | Instr.Cmp _ | Instr.Select _
        | Instr.Load _ | Instr.Masked_load _ | Instr.Splat _
        | Instr.Buildvec _ | Instr.Extract _ | Instr.Reduce _
        | Instr.Shuffle _ -> ())
      | Some key -> (
        match Key_table.get available key ~absent:(-1) with
        | -1 -> Key_table.set available key (register i)
        | h ->
          Int_table.set replacement i.Instr.id h;
          replaced := i :: !replaced))
    block;
  let removed = List.length !replaced in
  if removed > 0 then
    Block.remove_ids block
      (List.map (fun (i : Instr.t) -> i.Instr.id) !replaced);
  removed
