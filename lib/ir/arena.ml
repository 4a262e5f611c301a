(* Per-block instruction arena: the int-indexed snapshot behind every hot
   query.

   A block is pointer-shaped (a list of mutable records) because passes
   rewrite it in place; the analyses over it — use counts, positions,
   address adjacency — are not.  An arena freezes one block into dense
   arrays:

   - [instrs]: the instructions in program order; the array index is the
     *compact index* of an instruction, 0..n-1.  Compact indices are a
     per-arena coordinate system and must never appear in output — printed
     IR carries only the ids the function's [Lslp_util.Id_gen] issued.
   - id -> index: an [Lslp_util.Id_map], an array over the block's id
     span, which the function's own counter bounds.
   - CSR use lists: [use_off]/[use_dat], so [num_uses] is one subtraction
     and [users] walks a contiguous slice.  An instruction using a value
     twice appears twice, in program order — the same contract the old
     Hashtbl-of-lists kept.
   - an address side table (built lazily): base symbol and affine shape
     interned to small ints by [Addr_intern] (first-seen order, no string
     built), constant offset and lane count unpacked, so "consecutive?"
     and "may-alias?" are int compares instead of affine differencing per
     query.

   Invalidation contract: an arena is a snapshot.  Passes that mutate the
   block (codegen, CSE, DCE, reorderings via [Block.set_order]) must drop
   the arena and rebuild; read-only passes (seeds, graph build, scoring,
   cost) share one arena freely.  The verifier builds a fresh arena per
   block and runs {!check} on it, so a stale-arena bug cannot survive a
   verified commit.

   Who may reuse a verified arena: [Verifier.check_func_arenas] returns the
   arenas it built and checked, and the holder may keep reading one for as
   long as its block stays in the state that was verified.  The pipeline
   does exactly that: after a region commits, the verified arena of its
   block feeds the next seed attempt and, at loop exit, [Reduction.run].
   Within an attempt the same arena answers every question about the
   block's state: block membership for the fresh-seed filter and
   [Bundle.classify] ([mem]), as well as positions, uses and addresses.
   A rolled-back attempt restores the state its own entry arena described,
   so the pipeline falls back to that arena, never to one built on the
   rolled-back state.

   One read survives the mutation itself: the id -> index map ([idx],
   [size], [instr]) names the instructions of the snapshotted state
   whatever happens to the block afterwards, so codegen keeps indexing the
   pre-codegen instructions through it while it rewrites the block, and
   its dead sweep indexes them the same way.  Use counts, users and the
   address table describe the old state only and are never read once the
   block has changed. *)

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
  instrs : Instr.t array;
  idx_map : Id_map.t;  (* instruction id -> compact index | -1 *)
  use_off : int array; (* length n+1, monotone *)
  use_dat : int array; (* user indices grouped by def, program order *)
  mutable addr : addr_tables option; (* built on first address query *)
}

let size t = Array.length t.instrs
let block t = t.block
let instr t k = t.instrs.(k)

let idx_of_id t id = Id_map.get t.idx_map id

let idx t (i : Instr.t) = idx_of_id t i.Instr.id
let mem t i = idx t i >= 0

(* Program order is the array order, so position = compact index. *)
let pos t i = idx t i

let of_block (b : Block.t) =
  let instrs = Block.to_array b in
  let n = Array.length instrs in
  let min_id = ref max_int and max_id = ref min_int in
  for k = 0 to n - 1 do
    let id = instrs.(k).Instr.id in
    if id < !min_id then min_id := id;
    if id > !max_id then max_id := id
  done;
  let idx_map = Id_map.create ~lo:!min_id ~hi:!max_id in
  for k = 0 to n - 1 do
    Id_map.set idx_map instrs.(k).Instr.id k
  done;
  (* CSR uses in one offsets array: [use_off.(d)] first counts the uses of
     [d], a running sum then turns it into the end of [d]'s slice, and the
     fill, walking users backwards, moves it down to the slice's start.  So
     each slice lists its users in program order. *)
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
  { block = b; instrs; idx_map; use_off; use_dat; addr = None }

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
let addr_lanes t k = (addr t).a_lanes.(k)

let same_shape t j k =
  let a = addr t in
  a.a_shape.(j) >= 0 && a.a_shape.(j) = a.a_shape.(k)

(* ---- invariants ---- *)

(* The structural facts every consumer relies on: compact indices are dense
   and bijective with the block's ids, CSR offsets are monotone and sized
   to the data, and uses are acyclic (a straight-line block defines before
   it uses, so every user index exceeds its def's index). *)
let err fmt = Format.kasprintf (fun s -> Error s) fmt

let rec instrs_ok t k =
  if k >= size t then Ok ()
  else
    let id = t.instrs.(k).Instr.id in
    let k' = idx_of_id t id in
    if k' <> k then err "arena: id %d maps to index %d, expected %d" id k' k
    else instrs_ok t (k + 1)

let rec offs_ok t k =
  if k >= size t then Ok ()
  else if t.use_off.(k + 1) < t.use_off.(k) then
    err "arena: CSR offsets not monotone at %d" k
  else offs_ok t (k + 1)

let rec uses_ok t j =
  if j >= Array.length t.use_dat then Ok ()
  else
    let u = t.use_dat.(j) in
    if u < 0 || u >= size t then err "arena: use entry %d out of range" u
    else uses_ok t (j + 1)

(* every user of [k] from the [j]th on comes after it *)
let rec users_after t k j =
  if j >= t.use_off.(k + 1) then true
  else t.use_dat.(j) > k && users_after t k (j + 1)

let rec acyclic_ok t k =
  if k >= size t then Ok ()
  else if not (users_after t k t.use_off.(k)) then
    err "arena: use of %%%d at or before its definition" t.instrs.(k).Instr.id
  else acyclic_ok t (k + 1)

let check t =
  let n = size t in
  match instrs_ok t 0 with
  | Error _ as e -> e
  | Ok () -> (
    if t.use_off.(0) <> 0 then err "arena: CSR base offset not 0"
    else if t.use_off.(n) <> Array.length t.use_dat then
      err "arena: CSR total %d does not match data length %d" t.use_off.(n)
        (Array.length t.use_dat)
    else
      match offs_ok t 0 with
      | Error _ as e -> e
      | Ok () -> (
        match uses_ok t 0 with Error _ as e -> e | Ok () -> acyclic_ok t 0))
