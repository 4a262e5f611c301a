(* Memo table for the look-ahead score.

   Key soundness: a cached entry is only valid while the operand DAG under
   both instructions is immutable, because the score is a pure function of
   (instruction identity, instruction identity, remaining depth, combine
   mode) *given* frozen operands.  The reorderer therefore scopes the
   entries to one reorder invocation — no pass mutates instructions while
   a single operand matrix is being reordered — by clearing the table at
   the start of the call, so entries can never leak across codegen
   rewrites, transactional rollbacks or later regions.  See DESIGN.md §11.

   Representation: one flat int array of [key; generation; score] slots,
   open addressing with linear probing, at most half full.  Instruction
   ids are unique within the one function a reorder call sees, so they
   key the entries directly: [id_a:25 | id_b:25 | level:8 | mode:4] is 62
   bits, one word — no boxed key record, no polymorphic hashing.  Lookups
   outside those field widths bypass the cache rather than alias.

   Clearing bumps the table's generation instead of wiping its slots: a
   slot stamped with an older generation reads as empty, so a clear is
   O(1) however large the table has grown.  That is what lets the storage
   outlive a reorder call: the reorderer's table is one per domain
   ({!acquire}), allocated on the domain's first scored tie and reused by
   every later reorder call there.

   A table keeps at most [max_kept] slots (12 KB) across a clear.  A call
   that outgrows them grows into larger storage of its own, which the next
   clear drops for the kept slots.  Keeping the larger storage would save
   those calls their growth, but on OCaml 5.1 it also starves the major
   GC, which paces its work by major-heap allocation: kept at the
   catalog's largest need (1024 slots) the catalog benchmark's peak heap
   read 34 % above the per-build tables this replaced, kept at 512 it
   reads within 5 %.  See DESIGN.md §11. *)

module Int_table = Lslp_util.Int_table

type t = {
  mutable slots : int array;
      (* slot s is [slots.(3s)] key, [slots.(3s+1)] generation,
         [slots.(3s+2)] score; a generation other than [gen] is empty *)
  mutable mask : int;  (* capacity - 1, capacity a power of two *)
  mutable kept : int array;
      (* the largest [slots] of at most [max_kept] slots: the storage a
         {!clear} returns to *)
  mutable gen : int;   (* >= 1, so a fresh slot (generation 0) is empty *)
  mutable count : int; (* entries of generation [gen] *)
  mutable busy : bool; (* a reorder call holds this domain table *)
  mutable isolated : bool; (* {!acquire} hands out fresh tables instead *)
}

let absent = min_int
let stride = 3
let initial_capacity = 64
let max_kept = 512

let create () =
  let slots = Array.make (initial_capacity * stride) 0 in
  {
    slots;
    mask = initial_capacity - 1;
    kept = slots;
    gen = 1;
    count = 0;
    busy = false;
    isolated = false;
  }

(* The packed key, or -1 when a field is out of range: [lsr] makes a
   negative field huge, so one test covers both ends of all four. *)
let[@inline] pack ~a ~b ~level ~mode =
  if ((a lor b) lsr 25) lor (level lsr 8) lor (mode lsr 4) <> 0 then -1
  else (a lsl 37) lor (b lsl 12) lor (level lsl 4) lor mode

(* The base index of [key]'s slot in [slots], or of the empty slot where
   it would go: one pass along the probe sequence, as a loop. *)
let[@inline] probe (slots : int array) mask gen key =
  let s = ref (Int_table.slot_of ~mask key) in
  while
    let base = !s * stride in
    Array.unsafe_get slots (base + 1) = gen
    && Array.unsafe_get slots base <> key
  do
    s := (!s + 1) land mask
  done;
  !s * stride

let find t ~a ~b ~level ~mode =
  let key = pack ~a ~b ~level ~mode in
  if key < 0 then absent
  else
    let slots = t.slots and gen = t.gen in
    let base = probe slots t.mask gen key in
    if Array.unsafe_get slots (base + 1) = gen then
      Array.unsafe_get slots (base + 2)
    else absent

(* Double the capacity, carrying over this generation's entries only. *)
let grow t =
  let old = t.slots and gen = t.gen in
  let cap = (t.mask + 1) * 2 in
  let slots = Array.make (cap * stride) 0 in
  let mask = cap - 1 in
  for s = 0 to t.mask do
    let base = s * stride in
    if old.(base + 1) = gen then begin
      let key = old.(base) in
      let nb = probe slots mask gen key in
      slots.(nb) <- key;
      slots.(nb + 1) <- gen;
      slots.(nb + 2) <- old.(base + 2)
    end
  done;
  t.slots <- slots;
  t.mask <- mask;
  if cap <= max_kept then t.kept <- slots

let store t ~a ~b ~level ~mode score =
  let key = pack ~a ~b ~level ~mode in
  if score <> absent && key >= 0 then begin
    let slots = t.slots and gen = t.gen in
    let base = probe slots t.mask gen key in
    let fresh = Array.unsafe_get slots (base + 1) <> gen in
    Array.unsafe_set slots base key;
    Array.unsafe_set slots (base + 1) gen;
    Array.unsafe_set slots (base + 2) score;
    if fresh then begin
      t.count <- t.count + 1;
      if t.count * 2 > t.mask + 1 then grow t
    end
  end

let size t = t.count

let clear t =
  if t.count > 0 then begin
    t.gen <- t.gen + 1;
    t.count <- 0;
    if t.mask >= max_kept then begin
      t.slots <- t.kept;
      t.mask <- (Array.length t.kept / stride) - 1
    end
  end

exception Nested_acquire

(* One table per domain, created by the domain's first {!acquire}. *)
let domain_table = Domain.DLS.new_key create

(* Reorder calls never nest on one domain: nothing a reorder call runs
   reorders again.  The [busy] flag checks it, so a second holder can
   never clear the first one's entries or read its own into them. *)
let acquire () =
  let t = Domain.DLS.get domain_table in
  if t.isolated then create ()
  else begin
    if t.busy then raise Nested_acquire;
    t.busy <- true;
    clear t;
    t
  end

let release t = t.busy <- false

let isolated f =
  let t = Domain.DLS.get domain_table in
  let was = t.isolated in
  t.isolated <- true;
  Fun.protect ~finally:(fun () -> t.isolated <- was) f
