(* Open-addressing hash table keyed by int arrays.

   Bundle identities, CSE value keys and other composite facts on the hot
   path are encoded as short [int array]s (a tag plus payload words per
   element) instead of `Fmt.str`-built strings; this table maps such a key
   to an int handle.  One multiply per word (golden-ratio multiplier, high
   bits folded down at the end), linear probing, power-of-two capacity.
   Keys are compared by content; the caller must not mutate a key after
   insertion. *)

type t = {
  mutable keys : int array array; (* [||] = empty slot *)
  mutable vals : int array;
  mutable mask : int;
  mutable count : int;
}

let hash_key (k : int array) =
  let h = ref (Array.length k) in
  for i = 0 to Array.length k - 1 do
    h := (!h lxor Array.unsafe_get k i) * 0x2E3779B97F4A7C15
  done;
  !h lxor (!h lsr 29)

(* Top-level, so a comparison allocates no closure. *)
let rec equal_from (a : int array) (b : int array) i n =
  i >= n
  || (Array.unsafe_get a i = Array.unsafe_get b i && equal_from a b (i + 1) n)

let equal_key (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b && equal_from a b 0 n

let create n =
  let cap =
    let c = ref 16 in
    while !c < max 16 n do
      c := !c * 2
    done;
    !c
  in
  { keys = Array.make cap [||]; vals = Array.make cap 0; mask = cap - 1; count = 0 }

let length t = t.count

let rec probe keys mask k s =
  let key = Array.unsafe_get keys s in
  if Array.length key = 0 || equal_key key k then s
  else probe keys mask k ((s + 1) land mask)

let index t k = probe t.keys t.mask k (hash_key k land t.mask)

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let cap = (t.mask + 1) * 2 in
  t.keys <- Array.make cap [||];
  t.vals <- Array.make cap 0;
  t.mask <- cap - 1;
  Array.iteri
    (fun i k ->
      if Array.length k <> 0 then begin
        let s = probe t.keys t.mask k (hash_key k land t.mask) in
        t.keys.(s) <- k;
        t.vals.(s) <- old_vals.(i)
      end)
    old_keys

(* Bind [k] to [v] in the empty slot [s] that [index] found for it. *)
let insert t s k v =
  t.keys.(s) <- k;
  t.vals.(s) <- v;
  t.count <- t.count + 1;
  if t.count * 4 > (t.mask + 1) * 3 then grow t

let set t k v =
  if Array.length k = 0 then invalid_arg "Key_table.set: empty key";
  let s = index t k in
  if Array.length t.keys.(s) = 0 then insert t s k v else t.vals.(s) <- v

let find_or_add t k v =
  if Array.length k = 0 then invalid_arg "Key_table.find_or_add: empty key";
  let s = index t k in
  if Array.length t.keys.(s) = 0 then (insert t s k v; v) else t.vals.(s)

let get t k ~absent =
  let s = index t k in
  if Array.length t.keys.(s) = 0 then absent else t.vals.(s)

let mem t k = Array.length t.keys.(index t k) <> 0
