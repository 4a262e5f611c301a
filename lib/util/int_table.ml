(* Open-addressing hash table from int keys to int values.

   The hot-path replacement for `(int, _) Hashtbl.t`: no boxing, no
   polymorphic hashing, no bucket lists.  Keys are arbitrary ints except
   [min_int], which marks an empty slot; values are arbitrary ints.  Linear
   probing with power-of-two capacity and a fixed multiplicative hash —
   iteration order is never exposed, so determinism does not depend on the
   probe sequence. *)

type t = {
  mutable keys : int array; (* min_int = empty *)
  mutable vals : int array;
  mutable mask : int;       (* capacity - 1, capacity a power of two *)
  mutable count : int;
}

let empty_key = min_int

(* Fibonacci hashing: odd multiplier, top bits folded down by [land mask]
   after a shift.  Good enough for dense ids and packed keys alike. *)
let[@inline] slot_of ~mask k =
  let h = k * 0x2E3779B97F4A7C15 in
  (h lxor (h lsr 29)) land mask

let create n =
  let cap = max 16 n in
  (* round up to a power of two *)
  let cap =
    let c = ref 16 in
    while !c < cap do
      c := !c * 2
    done;
    !c
  in
  {
    keys = Array.make cap empty_key;
    vals = Array.make cap 0;
    mask = cap - 1;
    count = 0;
  }

let length t = t.count

(* Nothing is ever removed, so an empty table has no key to wipe: a
   table reused across calls that mostly store nothing clears for free. *)
let clear t =
  if t.count > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) empty_key;
    t.count <- 0
  end

let rec probe keys mask k s =
  let key = Array.unsafe_get keys s in
  if key = k || key = empty_key then s else probe keys mask k ((s + 1) land mask)

let[@inline] index t k = probe t.keys t.mask k (slot_of ~mask:t.mask k)

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = (t.mask + 1) * 2 in
  t.keys <- Array.make cap empty_key;
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  Array.iteri
    (fun i k ->
      if k <> empty_key then begin
        let s = probe t.keys t.mask k (slot_of ~mask:t.mask k) in
        t.keys.(s) <- k;
        t.vals.(s) <- old_vals.(i)
      end)
    old_keys

let set t k v =
  if k = empty_key then invalid_arg "Int_table.set: reserved key";
  let s = index t k in
  if t.keys.(s) = empty_key then begin
    t.keys.(s) <- k;
    t.vals.(s) <- v;
    t.count <- t.count + 1;
    (* keep load factor under 3/4 *)
    if t.count * 4 > (t.mask + 1) * 3 then grow t
  end
  else t.vals.(s) <- v

let get t k ~absent =
  let s = index t k in
  if Array.unsafe_get t.keys s = empty_key then absent
  else Array.unsafe_get t.vals s

let mem t k = t.keys.(index t k) <> empty_key
