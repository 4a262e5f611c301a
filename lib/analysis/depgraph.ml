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
   Memory edges are searched only within one array (accesses bucketed by
   the arena's interned base), so the direct edges cost O(n + E + P) for n
   instructions, E data edges and P same-array access pairs that include a
   store; loads of arrays the block never stores to cost nothing.  They
   are CSR int arrays, so no edge allocates (DESIGN §14).
   Reachability is a bit matrix packed 64 lanes to a word: row i is
   [stride = 8 * ceil(n / 64)] bytes with bit j set when i transitively
   depends on j, so a snapshot costs n^2/8 bytes, the closure merges rows a
   whole word at a time, and a query is one byte read plus a mask.  The
   closure is one sweep over the rows in a topological order of the
   direct edges: ascending position on any verified block. *)

open Lslp_ir

type t = {
  arena : Arena.t;
  n : int;
  pred_off : int array;  (* length n + 1: i's slice of [pred] *)
  pred : int array;      (* per i: data edges, then memory edges *)
  stride : int;          (* bytes per reach row, a multiple of 8 *)
  reach : Bytes.t;       (* bit j of row i: i transitively depends on j *)
}

(* The direct dependences as [(pred_off, pred, backward)], written in
   one ascending pass; [backward] when no edge points forward. *)
let edges (arena : Arena.t) =
  let n = Arena.size arena in
  (* memory dependencies: store/store and store/load pairs that may alias,
     earlier access before later.  Only accesses to one array can alias,
     so the accesses are bucketed by interned base, in program order (CSR:
     bucket [b] of [acc] is [acc_off.(b) ..], filled up to [acc_end.(b)]
     so far; likewise [sto] for stores alone).  A store is tested against
     every earlier access to its array, a load only against the earlier
     stores, each bucket walked in ascending position.  Counting bounds
     the edges (one per in-block use or tested pair): [pred] is made once. *)
  let nb = Arena.base_count arena and bound = ref 0 in
  let acc_off = Array.make (nb + 1) 0 and sto_off = Array.make (nb + 1) 0 in
  for i = 0 to n - 1 do
    bound := !bound + Arena.num_uses arena i;
    let b = Arena.addr_base arena i in
    if b >= 0 then begin
      if Instr.is_store (Arena.instr arena i) then begin
        bound := !bound + acc_off.(b + 1);
        sto_off.(b + 1) <- sto_off.(b + 1) + 1
      end
      else bound := !bound + sto_off.(b + 1);
      acc_off.(b + 1) <- acc_off.(b + 1) + 1
    end
  done;
  for b = 1 to nb do
    acc_off.(b) <- acc_off.(b) + acc_off.(b - 1);
    sto_off.(b) <- sto_off.(b) + sto_off.(b - 1)
  done;
  let acc = Array.make acc_off.(nb) 0 and sto = Array.make sto_off.(nb) 0 in
  let acc_end = Array.sub acc_off 0 nb and sto_end = Array.sub sto_off 0 nb in
  let off = Array.make (n + 1) 0 and pred = Array.make !bound 0 in
  let len = ref 0 and backward = ref true in
  let push j = pred.(!len) <- j; incr len in
  (* data dependencies — position-independent, so that rescheduling can
     repair a block that holds a def after its use *)
  let user = ref 0 in
  let data (v : Instr.value) =
    match v with
    | Instr.Ins def ->
      let i = !user and j = Arena.idx_of_id arena def.Instr.id in
      if j >= 0 && j <> i then begin
        if j > i then backward := false;
        push j
      end
    | Instr.Const _ | Instr.Arg _ -> ()
  in
  for i = 0 to n - 1 do
    off.(i) <- !len;
    user := i;
    Instr.iter_operands data (Arena.instr arena i);
    let b = Arena.addr_base arena i in
    if b >= 0 then begin
      if Instr.is_store (Arena.instr arena i) then begin
        for e = acc_off.(b) to acc_end.(b) - 1 do
          let j = acc.(e) in
          if Arena.may_alias arena i j then push j
        done;
        sto.(sto_end.(b)) <- i;
        sto_end.(b) <- sto_end.(b) + 1
      end
      else
        for e = sto_off.(b) to sto_end.(b) - 1 do
          let j = sto.(e) in
          if Arena.may_alias arena i j then push j
        done;
      acc.(acc_end.(b)) <- i;
      acc_end.(b) <- acc_end.(b) + 1
    end
  done;
  off.(n) <- !len;
  (off, pred, !backward)

(* Each slice consed in order, so reversed. *)
let direct_preds (arena : Arena.t) =
  let off, pred, _ = edges arena in
  let preds = Array.make (Arena.size arena) [] in
  for i = 0 to Arena.size arena - 1 do
    for e = off.(i) to off.(i + 1) - 1 do
      preds.(i) <- pred.(e) :: preds.(i)
    done
  done;
  preds

let set_bit reach ri j =
  let b = ri + (j lsr 3) in
  let c = Char.code (Bytes.unsafe_get reach b) lor (1 lsl (j land 7)) in
  Bytes.unsafe_set reach b (Char.unsafe_chr c)

(* Row [ri] |= row [rj], over the first [words] 64-bit words. *)
let or_row reach ri rj words =
  for w = 0 to words - 1 do
    let o = 8 * w in
    Bytes.set_int64_ne reach (ri + o)
      (Int64.logor
         (Bytes.get_int64_ne reach (ri + o))
         (Bytes.get_int64_ne reach (rj + o)))
  done

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

(* Index of the lowest set bit of a nonzero 32-bit word. *)
let lowest_bit x =
  let x = x land (-x) in
  let b = if x land 0xFFFF = 0 then 16 else 0 in
  let b = if (x lsr b) land 0xFF = 0 then b + 8 else b in
  let b = if (x lsr b) land 0xF = 0 then b + 4 else b in
  let b = if (x lsr b) land 0x3 = 0 then b + 2 else b in
  if (x lsr b) land 0x1 = 0 then b + 1 else b

(* Each unit's rank in [(key, unit)] order.  When the keys span a range
   no wider than a few times the unit count — codegen's keys are distinct
   block positions — a counting pass over the keys ranks them, walking
   units in ascending order so equal keys rank by unit; any other keys go
   through one sort under the same order. *)
let rank_units key =
  let units = Array.length key in
  let rank = Array.make units 0 in
  if units > 0 then begin
    let lo = ref key.(0) and hi = ref key.(0) in
    for u = 1 to units - 1 do
      if key.(u) < !lo then lo := key.(u);
      if key.(u) > !hi then hi := key.(u)
    done;
    let lo = !lo and range = !hi - !lo in
    if range >= 0 && range < (4 * units) + 64 then begin
      let start = Array.make (range + 2) 0 in
      for u = 0 to units - 1 do
        let b = key.(u) - lo + 1 in
        start.(b) <- start.(b) + 1
      done;
      for b = 1 to range + 1 do
        start.(b) <- start.(b) + start.(b - 1)
      done;
      for u = 0 to units - 1 do
        let b = key.(u) - lo in
        rank.(u) <- start.(b);
        start.(b) <- start.(b) + 1
      done
    end
    else begin
      let by_rank = Array.init units Fun.id in
      Array.stable_sort (fun a b -> Int.compare key.(a) key.(b)) by_rank;
      Array.iteri (fun r u -> rank.(u) <- r) by_rank
    end
  end;
  rank

(* Kahn's algorithm over a ready set of ranks.  Unit edges come straight
   off the direct CSR slices, never the closure, yet the order is the one
   testing every transitive pair would give: the emitted set is always
   closed under dependences, so "all direct preds emitted" and "all
   transitive preds emitted" pick the same ready set at every step, and a
   contraction of the direct graph is cyclic exactly when the contraction
   of its closure is.  Duplicate unit edges are counted, not filtered.

   The ready set is a bitmap over ranks, 32 to a word, and the least ready
   unit is the lowest set bit at or after [low], the word of the least
   rank that can still be ready: a pop leaves it where the popped rank
   was, a push below it moves it down.  Edges cost O(n + E); a pop scans
   O(U / 32) words at worst and usually one. *)
let schedule t ~unit_of ~key =
  let units = Array.length key in
  (* unit edges v -> u in CSR form: v's successors are
     [succ.(start.(v)) .. succ.(start.(v + 1) - 1)] *)
  let indeg = Array.make units 0 and start = Array.make (units + 1) 0 in
  let iter_edges f =
    for i = 0 to t.n - 1 do
      let u = unit_of.(i) in
      for e = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
        let v = unit_of.(t.pred.(e)) in
        if v <> u then f v u
      done
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
  let rank = rank_units key in
  let unit_at = fill in
  Array.iteri (fun u r -> unit_at.(r) <- u) rank;
  let ready = Array.make ((units + 31) lsr 5) 0 and low = ref max_int in
  let push u =
    let r = rank.(u) in
    let w = r lsr 5 in
    ready.(w) <- ready.(w) lor (1 lsl (r land 31));
    if w < !low then low := w
  in
  for u = 0 to units - 1 do
    if indeg.(u) = 0 then push u
  done;
  let order = Array.make units 0 and emitted = ref 0 in
  let words = Array.length ready in
  let rec pop w =
    if w >= words then -1
    else
      let x = ready.(w) in
      if x = 0 then pop (w + 1)
      else begin
        low := w;
        let b = lowest_bit x in
        ready.(w) <- x lxor (1 lsl b);
        unit_at.((w lsl 5) lor b)
      end
  in
  let continue_ = ref true in
  while !continue_ do
    match pop !low with
    | -1 -> continue_ := false
    | v ->
      order.(!emitted) <- v;
      incr emitted;
      for e = start.(v) to start.(v + 1) - 1 do
        let u = succ.(e) in
        indeg.(u) <- indeg.(u) - 1;
        if indeg.(u) = 0 then push u
      done
  done;
  if !emitted = units then Some order else None

(* Row i ORs in each predecessor's row, final by then.  When every edge
   points backward (any verified block) the rows go in ascending position
   and a predecessor j reaches nothing at or above itself, so only
   ceil(j / 64) words are merged; a block with a def after its use (what
   rescheduling repairs) goes in the order [schedule] gives its
   instructions, merging whole rows. *)
let sweep t ~backward i =
  let ri = i * t.stride in
  for e = t.pred_off.(i) to t.pred_off.(i + 1) - 1 do
    let j = t.pred.(e) in
    set_bit t.reach ri j;
    or_row t.reach ri (j * t.stride)
      (if backward then (j + 63) lsr 6 else t.stride / 8)
  done

let build_arena (arena : Arena.t) =
  let n = Arena.size arena in
  let pred_off, pred, backward = edges arena in
  let stride = 8 * ((n + 63) / 64) in
  let t =
    { arena; n; pred_off; pred; stride; reach = Bytes.make (n * stride) '\000' }
  in
  (if backward then for i = 0 to n - 1 do sweep t ~backward i done
   else
     let pos = Array.init n Fun.id in
     match schedule t ~unit_of:pos ~key:pos with
     | Some order -> Array.iter (sweep t ~backward) order
     | None -> invalid_arg "Depgraph: cyclic dependences");
  t

let build block = build_arena (Arena.of_block block)
