(* Per-block instruction arena: the int-indexed view behind every hot
   query.

   A block stores its instructions as one program-order array
   ([Block.instrs]).  An arena is a view of that array at the block's
   length, which it does not copy, plus what the hot passes ask:

   - the compact index of an instruction is its slot, 0..n-1: a
     per-arena coordinate that never appears in output, where printed IR
     carries only the ids the function's [Lslp_util.Id_gen] issued;
   - id -> index: an [Lslp_util.Id_map] over the block's id span;
   - CSR use lists ([use_off]/[use_dat]): [num_uses] is one subtraction,
     [users] a contiguous slice; a double use appears twice, in order;
   - an address table, built on the first address query: base symbol and
     affine shape interned to small ints by [Addr_intern] (first-seen
     order, no string built), constant offset and lane count unpacked, so
     "consecutive?" and "may-alias?" are int compares.

   Invalidation contract.  A block never rewrites a slot below its
   length: [Block.append] writes past it, every other change installs a
   fresh array.  So an arena keeps reading the state it was built on when
   the block moves on; it just no longer describes the block.  A pass
   that mutates the block (codegen, CSE, DCE, [Block.set_order]) builds a
   new arena after; read-only passes (seeds, graph build, scoring, cost)
   share one.  [Verifier.check_func_arenas] builds each block's arena in
   the walk that checks the block, runs {!check} on it and returns it; the
   pipeline keeps reading a committed block's arena while the block stays
   as verified (the next seed attempt, then [Reduction.run]), and a
   rolled-back attempt falls back to its entry arena, whose state the
   rollback restores.

   Once the block has changed, [idx], [size] and [instr] still name the
   snapshotted instructions: codegen indexes the pre-codegen instructions
   through them while it rewrites the block, and so does its dead sweep.
   Operands are rewritten in place on the instructions, so the use lists
   and the address table are never read once the block has changed. *)

module Id_map = Lslp_util.Id_map

type addr_tables = {
  a_base : int array;   (* interned base symbol | -1 for non-memory *)
  a_shape : int array;  (* interned affine-terms shape | -1 *)
  a_const : int array;  (* constant part of the index *)
  a_lanes : int array;  (* access lanes | 0 *)
  n_bases : int;        (* base ids are 0 .. n_bases - 1 *)
}

type t = {
  block : Block.t;
  instrs : Instr.t array; (* the block's own array, read in [0, n) *)
  n : int;
  idx_map : Id_map.t;  (* instruction id -> compact index | -1 *)
  use_off : int array; (* length n+1, monotone *)
  use_dat : int array; (* user indices grouped by def, program order *)
  mutable addr : addr_tables option; (* built on first address query *)
}

let size t = t.n
let block t = t.block
let instr t k = t.instrs.(k)

let idx_of_id t id = Id_map.get t.idx_map id

let idx t (i : Instr.t) = idx_of_id t i.Instr.id
let mem t i = idx t i >= 0

(* Program order is the array order, so position = compact index. *)
let pos t i = idx t i

let id_span (b : Block.t) =
  let instrs = Block.instrs b in
  let min_id = ref max_int and max_id = ref min_int in
  for k = 0 to Block.length b - 1 do
    let id = instrs.(k).Instr.id in
    if id < !min_id then min_id := id;
    if id > !max_id then max_id := id
  done;
  Id_map.create ~lo:!min_id ~hi:!max_id

(* [use_off.(d)] holds the use count of [d] on entry: a running sum turns
   it into the end of [d]'s slice, and the fill, walking users backwards,
   moves it down to the slice's start.  So each slice lists its users in
   program order. *)
let of_index (b : Block.t) idx_map use_off =
  let instrs = Block.instrs b and n = Block.length b in
  for k = 1 to n do
    use_off.(k) <- use_off.(k - 1) + use_off.(k)
  done;
  let use_dat = Array.make use_off.(n) 0 in
  let user = ref 0 in
  let fill (v : Instr.value) =
    match v with
    | Instr.Ins def ->
      let d = Id_map.get idx_map def.Instr.id in
      if d >= 0 then begin
        use_off.(d) <- use_off.(d) - 1;
        use_dat.(use_off.(d)) <- !user
      end
    | Instr.Const _ | Instr.Arg _ -> ()
  in
  for k = n - 1 downto 0 do
    user := k;
    Instr.iter_operands fill instrs.(k)
  done;
  { block = b; instrs; n; idx_map; use_off; use_dat; addr = None }

let of_block (b : Block.t) =
  let idx_map = id_span b and instrs = Block.instrs b in
  let n = Block.length b in
  for k = 0 to n - 1 do
    Id_map.set idx_map instrs.(k).Instr.id k
  done;
  let use_off = Array.make (n + 1) 0 in
  let count (v : Instr.value) =
    match v with
    | Instr.Ins def ->
      let d = Id_map.get idx_map def.Instr.id in
      if d >= 0 then use_off.(d) <- use_off.(d) + 1
    | Instr.Const _ | Instr.Arg _ -> ()
  in
  for k = 0 to n - 1 do
    Instr.iter_operands count instrs.(k)
  done;
  of_index b idx_map use_off

(* ---- uses ---- *)

let num_uses t k = t.use_off.(k + 1) - t.use_off.(k)

let users t k =
  let lo = t.use_off.(k) and hi = t.use_off.(k + 1) in
  let rec go j acc = if j < lo then acc else go (j - 1) (t.instrs.(t.use_dat.(j)) :: acc) in
  go (hi - 1) []

let fold_users t k f acc =
  let r = ref acc in
  for j = t.use_off.(k) to t.use_off.(k + 1) - 1 do
    r := f !r t.use_dat.(j)
  done;
  !r

let exists_user t k p =
  let hi = t.use_off.(k + 1) in
  let rec go j = j < hi && (p t.use_dat.(j) || go (j + 1)) in
  go t.use_off.(k)

(* ---- address side table ---- *)

let build_addr t =
  let n = size t in
  let a_base = Array.make n (-1) in
  let a_shape = Array.make n (-1) in
  let a_const = Array.make n 0 in
  let a_lanes = Array.make n 0 in
  let ids = Addr_intern.create () in
  for k = 0 to n - 1 do
    match t.instrs.(k).Instr.kind with
    | Instr.Load a | Instr.Store (a, _) | Instr.Masked_load (a, _, _)
    | Instr.Masked_store (a, _, _) ->
      a_base.(k) <- Addr_intern.base ids a.Instr.base;
      a_shape.(k) <- Addr_intern.shape ids a.Instr.index;
      a_const.(k) <- Affine.const_part a.Instr.index;
      a_lanes.(k) <- a.Instr.access_lanes
    | Instr.Binop _ | Instr.Unop _ | Instr.Cmp _ | Instr.Select _
    | Instr.Splat _ | Instr.Buildvec _ | Instr.Extract _ | Instr.Reduce _
    | Instr.Shuffle _ -> ()
  done;
  let tbls =
    { a_base; a_shape; a_const; a_lanes; n_bases = Addr_intern.base_count ids }
  in
  t.addr <- Some tbls;
  tbls

let addr t = match t.addr with Some a -> a | None -> build_addr t

let is_memory t k = (addr t).a_base.(k) >= 0

let same_array t j k =
  let a = addr t in
  a.a_base.(j) >= 0 && a.a_base.(j) = a.a_base.(k)

(* Element distance [k - j] when both accesses index the same array with
   the same symbolic shape; mirrors [Addr.element_distance]. *)
let element_distance t j k =
  let a = addr t in
  if a.a_base.(j) < 0 || a.a_base.(j) <> a.a_base.(k) then None
  else if a.a_shape.(j) <> a.a_shape.(k) then None
  else Some (a.a_const.(k) - a.a_const.(j))

let consecutive t j k =
  let a = addr t in
  a.a_base.(j) >= 0
  && a.a_base.(j) = a.a_base.(k)
  && a.a_shape.(j) = a.a_shape.(k)
  && a.a_const.(k) - a.a_const.(j) = a.a_lanes.(j)

let ranges_overlap a_lo a_len b_lo b_len =
  a_lo < b_lo + b_len && b_lo < a_lo + a_len

let may_alias t j k =
  let a = addr t in
  if a.a_base.(j) < 0 || a.a_base.(j) <> a.a_base.(k) then false
  else if a.a_shape.(j) <> a.a_shape.(k) then true (* symbolic: assume the worst *)
  else
    ranges_overlap 0 a.a_lanes.(j) (a.a_const.(k) - a.a_const.(j)) a.a_lanes.(k)

let addr_base t k = (addr t).a_base.(k)
let addr_shape t k = (addr t).a_shape.(k)
let base_count t = (addr t).n_bases
let addr_const t k = (addr t).a_const.(k)

let same_shape t j k =
  let a = addr t in
  a.a_shape.(j) >= 0 && a.a_shape.(j) = a.a_shape.(k)

(* ---- invariants ---- *)

(* The structural facts every consumer relies on: compact indices are dense
   and bijective with the block's ids, CSR offsets are monotone and sized
   to the data, and uses are acyclic (a straight-line block defines before
   it uses, so every user index exceeds its def's index). *)
let err fmt = Format.kasprintf (fun s -> Error s) fmt

(* the first index in [k, hi) where [bad t] holds, or [hi] *)
let rec first bad t k hi =
  if k < hi && not (bad t k) then first bad t (k + 1) hi else k

let misplaced t k = idx_of_id t t.instrs.(k).Instr.id <> k
let falls t k = t.use_off.(k + 1) < t.use_off.(k)
let outside t j = t.use_dat.(j) < 0 || t.use_dat.(j) >= t.n

(* some user of [k] from the [j]th on comes at or before it *)
let rec used_early t k j =
  j < t.use_off.(k + 1) && (t.use_dat.(j) <= k || used_early t k (j + 1))

let cyclic t k = used_early t k t.use_off.(k)

let check t =
  let n = t.n and len = Array.length t.use_dat in
  let k = first misplaced t 0 n in
  if k < n then
    let id = t.instrs.(k).Instr.id in
    err "arena: id %d maps to index %d, expected %d" id (idx_of_id t id) k
  else if t.use_off.(0) <> 0 then err "arena: CSR base offset not 0"
  else if t.use_off.(n) <> len then
    err "arena: CSR total %d does not match data length %d" t.use_off.(n) len
  else if first falls t 0 n < n then
    err "arena: CSR offsets not monotone at %d" (first falls t 0 n)
  else if first outside t 0 len < len then
    err "arena: use entry %d out of range" t.use_dat.(first outside t 0 len)
  else
    let k = first cyclic t 0 n in
    if k < n then
      err "arena: use of %%%d at or before its definition" t.instrs.(k).Instr.id
    else Ok ()
