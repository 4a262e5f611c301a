(* Address interning without strings.

   The arena's address side table and CSE's load keys both need "same
   array?" and "same symbolic shape?" as int equalities.  Each table is a
   first-seen array scanned with a monomorphic [equal], as [Cse.names] is,
   after the previous query's id (consecutive accesses usually share base
   and shape).  A miss of that fast path costs O(k) for k keys seen, so
   the scan relies on a block naming a handful of arrays and shapes: at
   most 5 bases and 3 shapes per table on the kernel catalog, the
   benchmark's chains and batches and 1,500 fuzz programs.  [equal] is
   always a top-level function: a lookup allocates nothing. *)

type 'a table = { mutable keys : 'a array; mutable n : int; mutable last : int }

let rec scan equal t k j =
  if j = t.n then begin
    if j = Array.length t.keys then begin
      let bigger = Array.make (max 8 (2 * j)) k in
      Array.blit t.keys 0 bigger 0 j;
      t.keys <- bigger
    end;
    t.keys.(j) <- k;
    t.n <- j + 1;
    j
  end
  else if equal t.keys.(j) k then j
  else scan equal t k (j + 1)

let id equal t k =
  if t.last >= 0 && equal t.keys.(t.last) k then t.last
  else begin
    let id = scan equal t k 0 in
    t.last <- id;
    id
  end

let rec equal_terms a b =
  a == b
  ||
  match (a, b) with
  | [], [] -> true
  | (s, c) :: a', (s', c') :: b' ->
    Int.equal c c' && String.equal s s' && equal_terms a' b'
  | _ :: _, [] | [], _ :: _ -> false

type t = { bases : string table; shapes : (string * int) list table }

let create () =
  { bases = { keys = [||]; n = 0; last = -1 };
    shapes = { keys = [||]; n = 0; last = -1 } }

let base t s = id String.equal t.bases s
let shape t index = id equal_terms t.shapes (Affine.terms index)
let base_count t = t.bases.n
