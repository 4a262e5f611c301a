(* Dependence graph of a basic block.

   Nodes are the block's instructions; there is an edge j -> i (i depends on
   j) when

   - data: instruction i uses the value defined by j, or
   - memory: i and j access may-aliasing memory and at least one is a store
     (the earlier one is the dependency of the later one).

   Straight-line semantics is preserved by any topological order of this
   graph, which is what makes both bundle-schedulability checking and
   post-vectorization rescheduling sound.

   Built over a per-block [Arena]: positions and may-alias queries are
   array reads and int compares off the arena's precomputed address table.
   Reachability is a bit matrix packed 64 lanes to a word: row i is
   [stride = 8 * ceil(n / 64)] bytes with bit j set when i transitively
   depends on j, so a snapshot costs n^2/8 bytes, the closure merges rows a
   whole word at a time, and a query is one byte read plus a mask. *)

open Lslp_ir

type t = {
  arena : Arena.t;
  preds : int list array;   (* direct dependencies (positions) *)
  n : int;
  stride : int;             (* bytes per reach row, a multiple of 8 *)
  reach : Bytes.t;          (* bit j of row i: i transitively depends on j *)
}

let direct_preds (arena : Arena.t) =
  let n = Arena.size arena in
  let preds = Array.make n [] in
  (* data dependencies — position-independent, so that rescheduling can
     repair blocks that temporarily contain a def after its use *)
  for i = 0 to n - 1 do
    List.iter
      (fun v ->
        match Instr.value_id v with
        | Some id ->
          let j = Arena.idx_of_id arena id in
          if j >= 0 && j <> i then preds.(i) <- j :: preds.(i)
        | None -> ())
      (Instr.operands (Arena.instr arena i))
  done;
  (* memory dependencies: store/store and store/load pairs that may alias,
     earlier access before later *)
  let mems = ref [] in
  for i = n - 1 downto 0 do
    if Arena.is_memory arena i then mems := i :: !mems
  done;
  let mems = !mems in
  List.iter
    (fun i ->
      let store_i = Instr.is_store (Arena.instr arena i) in
      List.iter
        (fun j ->
          if
            j < i
            && (store_i || Instr.is_store (Arena.instr arena j))
            && Arena.may_alias arena i j
          then preds.(i) <- j :: preds.(i))
        mems)
    mems;
  preds

let build_arena (arena : Arena.t) =
  let n = Arena.size arena in
  let preds = direct_preds arena in
  (* transitive closure by memoized DFS (data edges may point forward in
     position, so a positional sweep is not enough) *)
  let stride = 8 * ((n + 63) / 64) in
  let reach = Bytes.make (n * stride) '\000' in
  let visited = Bytes.make (max n 1) '\000' in
  let rec close i =
    if Bytes.unsafe_get visited i = '\000' then begin
      Bytes.unsafe_set visited i '\001';
      let ri = i * stride in
      List.iter
        (fun j ->
          let b = ri + (j lsr 3) in
          Bytes.unsafe_set reach b
            (Char.unsafe_chr
               (Char.code (Bytes.unsafe_get reach b) lor (1 lsl (j land 7))));
          close j;
          let rj = j * stride in
          for w = 0 to (stride / 8) - 1 do
            let o = 8 * w in
            Bytes.set_int64_ne reach (ri + o)
              (Int64.logor
                 (Bytes.get_int64_ne reach (ri + o))
                 (Bytes.get_int64_ne reach (rj + o)))
          done)
        preds.(i)
    end
  in
  for i = 0 to n - 1 do
    close i
  done;
  { arena; preds; n; stride; reach }

let build block = build_arena (Arena.of_block block)

let arena t = t.arena

let mem t (i : Instr.t) = Arena.mem t.arena i

let position t (i : Instr.t) =
  match Arena.idx t.arena i with
  | -1 -> invalid_arg "Depgraph: instruction not in block"
  | p -> p

let reaches t i j =
  Char.code (Bytes.unsafe_get t.reach ((i * t.stride) + (j lsr 3)))
  land (1 lsl (j land 7))
  <> 0

let depends t a ~on = reaches t (position t a) (position t on)

let independent t insts =
  let ps = List.map (position t) insts in
  List.for_all
    (fun p -> List.for_all (fun q -> p = q || not (reaches t p q)) ps)
    ps

(* Kahn's algorithm with a binary min-heap of ready units.  Unit edges
   come straight off the direct [preds], never the closure, yet the order
   is the one testing every transitive pair would give: the emitted set is
   always closed under dependences, so "all direct preds emitted" and "all
   transitive preds emitted" pick the same ready set at every step, and a
   contraction of the direct graph is cyclic exactly when the contraction
   of its closure is.  Duplicate unit edges are counted, not filtered, so
   the edges cost O(n + E) and the heap O(U log U): O((n + E) log U). *)
let schedule t ~unit_of ~key =
  let units = Array.length key in
  (* unit edges v -> u in CSR form: v's successors are
     [succ.(start.(v)) .. succ.(start.(v + 1) - 1)] *)
  let indeg = Array.make units 0 and start = Array.make (units + 1) 0 in
  let iter_edges f =
    for i = 0 to t.n - 1 do
      let u = unit_of.(i) in
      List.iter (fun j -> if unit_of.(j) <> u then f unit_of.(j) u) t.preds.(i)
    done
  in
  iter_edges (fun v u ->
      indeg.(u) <- indeg.(u) + 1;
      start.(v + 1) <- start.(v + 1) + 1);
  for v = 1 to units do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let succ = Array.make start.(units) 0 and fill = Array.sub start 0 units in
  iter_edges (fun v u ->
      succ.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1);
  (* binary min-heap of ready units, least [(key, unit)] at the root *)
  let heap = Array.make units 0 and size = ref 0 in
  let before a b = key.(a) < key.(b) || (key.(a) = key.(b) && a < b) in
  let rec sift_up u c =
    let p = (c - 1) / 2 in
    if c > 0 && before u heap.(p) then (heap.(c) <- heap.(p); sift_up u p)
    else heap.(c) <- u
  in
  let rec sift_down u c =
    let l = (2 * c) + 1 and r = (2 * c) + 2 in
    let m = if r < !size && before heap.(r) heap.(l) then r else l in
    if m < !size && before heap.(m) u then (heap.(c) <- heap.(m); sift_down u m)
    else heap.(c) <- u
  in
  let push u = incr size; sift_up u (!size - 1) in
  for u = 0 to units - 1 do
    if indeg.(u) = 0 then push u
  done;
  let order = Array.make units 0 and emitted = ref 0 in
  while !size > 0 do
    let v = heap.(0) in
    decr size;
    sift_down heap.(!size) 0;
    order.(!emitted) <- v;
    incr emitted;
    for e = start.(v) to start.(v + 1) - 1 do
      let u = succ.(e) in
      indeg.(u) <- indeg.(u) - 1;
      if indeg.(u) = 0 then push u
    done
  done;
  if !emitted = units then Some order else None
