(* Operand reordering.

   Three strategies, matching the paper's compiler configurations:

   - [no_reorder]: SLP-NR — operands as written.
   - [vanilla]: SLP — a faithful port of LLVM 4.0's
     reorderInputsAccordingToOpcode/shouldReorderOperands, including the
     peeled first lane ("favor having instruction to the right"), the
     Splat/AllSameOpcode flags, and the trailing consecutive-load pass.
   - [lookahead]: LSLP §4.3-4.4 — a single left-to-right pass over the
     (operand-slot × lane) matrix with per-slot modes
     (CONST/LOAD/OPCODE/SPLAT/FAILED, Table 1) and the recursive look-ahead
     score of Listing 7 to break ties between same-opcode candidates. *)

open Lslp_ir
open Lslp_analysis

type mode = Const_mode | Load_mode | Opcode_mode | Splat_mode | Failed_mode

let mode_to_string = function
  | Const_mode -> "CONST"
  | Load_mode -> "LOAD"
  | Opcode_mode -> "OPCODE"
  | Splat_mode -> "SPLAT"
  | Failed_mode -> "FAILED"

module Score_cache = Lslp_telemetry.Score_cache
module Probe = Lslp_telemetry.Probe

let addr_consecutive (a : Instr.t) (b : Instr.t) =
  match (Instr.address a, Instr.address b) with
  | Some aa, Some ab -> Addr.consecutive aa ab
  | _ -> false

(* Load adjacency: int compares on the arena's address table when both
   loads are in it ([ka], [kb] are their compact indices, -1 outside), the
   affine difference of [Addr.consecutive] otherwise (the two agree on
   every pair the arena holds). *)
let loads_adjacent_at arena (a : Instr.t) ka (b : Instr.t) kb =
  match arena with
  | Some ar when ka >= 0 && kb >= 0 -> Arena.consecutive ar ka kb
  | Some _ | None -> addr_consecutive a b

let arena_index arena (v : Instr.value) =
  match (arena, v) with
  | Some ar, Instr.Ins i -> Arena.idx ar i
  | (Some _ | None), _ -> -1

(* The paper's are_consecutive_or_match: constants match constants, loads
   match consecutive loads, other instructions match on opcode class.
   [k1], [k2] are the values' {!arena_index}.  The functions below that
   take an [arena] (the block's, or [None]) are the ones the graph build
   runs; the exported ones are their arena-less forms, which decide the
   same on every pair. *)
let matches_at arena (v1 : Instr.value) k1 (v2 : Instr.value) k2 =
  match (v1, v2) with
  | Instr.Const _, Instr.Const _ -> true
  | Instr.Arg _, Instr.Arg _ -> Instr.equal_value v1 v2
  | Instr.Ins a, Instr.Ins b ->
    if Instr.is_load a && Instr.is_load b then loads_adjacent_at arena a k1 b k2
    else Instr.same_opclass a b
  | (Instr.Const _ | Instr.Arg _ | Instr.Ins _), _ -> false

let consecutive_or_match v1 v2 = matches_at None v1 (-1) v2 (-1)

(* Per-pair base score.  The paper's are_consecutive_or_match is boolean;
   we grade it slightly so that ties between isomorphic sub-DAGs that share
   subexpressions resolve toward splat-friendly pairings:
   - identical values (same instruction / argument / constant) ..... 2
   - consecutive loads ............................................. 2
   - non-consecutive loads ......................................... 0
   - two constants / same-opcode instructions ...................... 1
   This mirrors the graded scores the production LLVM look-ahead heuristic
   eventually adopted (ScoreConsecutiveLoads/ScoreSplat vs ScoreSameOpcode)
   and preserves the paper's Figure 7 ranking. *)
let pair_score_in arena (v1 : Instr.value) (v2 : Instr.value) =
  if Instr.equal_value v1 v2 then 2
  else
    match (v1, v2) with
    | Instr.Const _, Instr.Const _ -> 1
    | Instr.Ins a, Instr.Ins b when Instr.is_load a && Instr.is_load b ->
      let k1 = arena_index arena v1 and k2 = arena_index arena v2 in
      if loads_adjacent_at arena a k1 b k2 then 2 else 0
    | Instr.Ins a, Instr.Ins b -> if Instr.same_opclass a b then 1 else 0
    | (Instr.Const _ | Instr.Arg _ | Instr.Ins _), _ -> 0

let pair_score v1 v2 = pair_score_in None v1 v2

(* Listing 7: the look-ahead score.  Recurses through pairs of same-opcode
   instructions with operands.  The per-level combination is the score of
   the best *bijective* pairing of the two operand lists (for a commutative
   binary op: the better of the two diagonal pairings) — pairing each
   operand with its best counterpart is what the reorder will actually be
   able to realize, and an all-pairs sum would spuriously reward repeated
   operands (x*x vs x*y).  [Score_max] is the footnote-4 alternative: the
   single best pair instead of the pairing sum.

   [cache] memoizes instruction/instruction comparisons on (id, id,
   remaining level, combine mode) — sound as long as the operand DAG is
   frozen, which holds for the lifetime of one reorder invocation (see
   Lslp_telemetry.Score_cache).  A cache
   hit skips the recursion entirely and therefore burns no look-ahead
   fuel: under a tight budget the cached run can only get further than
   the uncached one, never less far.  [probe] counts evaluations and cache
   hits/misses. *)
let combine_tag = function Config.Score_sum -> 0 | Config.Score_max -> 1

let rec lookahead_in ?meter ?cache ?probe arena
    ~(combine : Config.score_combine) (v1 : Instr.value) (v2 : Instr.value)
    ~(level : int) : int =
  match (cache, v1, v2) with
  | Some c, Instr.Ins i1, Instr.Ins i2 ->
    let a = i1.Instr.id and b = i2.Instr.id in
    let mode = combine_tag combine in
    let s = Score_cache.find c ~a ~b ~level ~mode in
    if s <> Score_cache.absent then begin
      Option.iter
        (fun p ->
          let pc = Probe.counters p in
          pc.Probe.score_hits <- pc.Probe.score_hits + 1)
        probe;
      s
    end
    else begin
      Option.iter
        (fun p ->
          let pc = Probe.counters p in
          pc.Probe.score_misses <- pc.Probe.score_misses + 1)
        probe;
      let s =
        lookahead_compute ?meter ?cache ?probe arena ~combine v1 v2 ~level
      in
      Score_cache.store c ~a ~b ~level ~mode s;
      s
    end
  | (Some _ | None), _, _ ->
    lookahead_compute ?meter ?cache ?probe arena ~combine v1 v2 ~level

and lookahead_compute ?meter ?cache ?probe arena
    ~(combine : Config.score_combine) (v1 : Instr.value) (v2 : Instr.value)
    ~(level : int) : int =
  (* Each recursive comparison burns one unit of fuel, so a pathological
     deeply-shared DAG bails with [Budget.Exhausted] instead of going
     exponential. *)
  Option.iter Lslp_robust.Budget.spend_fuel meter;
  Option.iter
    (fun p ->
      let pc = Probe.counters p in
      pc.Probe.score_evals <- pc.Probe.score_evals + 1)
    probe;
  if level <= 0 || Instr.equal_value v1 v2 then pair_score_in arena v1 v2
  else
    match (v1, v2) with
    | Instr.Ins a, Instr.Ins b
      when Instr.same_opclass a b && not (Instr.is_load a) -> (
      let score x y =
        lookahead_in ?meter ?cache ?probe arena ~combine x y ~level:(level - 1)
      in
      match (Instr.operands a, Instr.operands b, combine) with
      | [], _, _ | _, [], _ -> pair_score_in arena v1 v2
      | [ a1; a2 ], [ b1; b2 ], Config.Score_sum ->
        let aligned = score a1 b1 + score a2 b2 in
        if Instr.is_commutative a then
          max aligned (score a1 b2 + score a2 b1)
        else aligned
      | [ a1; a2 ], [ b1; b2 ], Config.Score_max ->
        let aligned = max (score a1 b1) (score a2 b2) in
        if Instr.is_commutative a then
          max aligned (max (score a1 b2) (score a2 b1))
        else aligned
      | ops_a, ops_b, Config.Score_sum when List.length ops_a = List.length ops_b
        -> List.fold_left2 (fun acc x y -> acc + score x y) 0 ops_a ops_b
      | ops_a, ops_b, Config.Score_max when List.length ops_a = List.length ops_b
        -> List.fold_left2 (fun acc x y -> max acc (score x y)) 0 ops_a ops_b
      | _ -> pair_score_in arena v1 v2)
    | (Instr.Const _ | Instr.Arg _ | Instr.Ins _), _ -> pair_score_in arena v1 v2

let lookahead_score ?meter ?cache ?probe ~combine v1 v2 ~level =
  lookahead_in ?meter ?cache ?probe None ~combine v1 v2 ~level

let init_mode (v : Instr.value) =
  match v with
  | Instr.Const _ | Instr.Arg _ -> Const_mode
  | Instr.Ins i -> if Instr.is_load i then Load_mode else Opcode_mode

(* The look-ahead tie-break of Listing 6 among [matching] (two or more
   candidates, in pool order): deepen from level 1 until the scores
   separate and take the first best, or the first candidate when they
   never do.  [levels] receives each level's scores for the decision
   trace.  Scores memoize in [cache] when one is given — the reorder
   call's, shared across slots, lanes, candidates and deepening steps;
   without one, scoring is the paper's Listing 7 as written. *)
let tie_break ?meter ?cache ?probe ?levels arena (config : Config.t) last
    matching =
  let combine = config.Config.score_combine in
  let first = List.hd matching in
  let rec try_level level =
    let scores =
      List.map
        (fun c ->
          (c, lookahead_in ?meter ?cache ?probe arena ~combine last c ~level))
        matching
    in
    Option.iter (fun acc -> acc := (level, List.map snd scores) :: !acc) levels;
    let all_equal =
      match scores with
      | [] -> true
      | (_, s0) :: rest -> List.for_all (fun (_, s) -> s = s0) rest
    in
    if not all_equal then
      fst
        (List.fold_left
           (fun (bv, bs) (c, s) -> if s > bs then (c, s) else (bv, bs))
           (first, min_int) scores)
    else if level >= config.Config.lookahead_depth then first
    else try_level (level + 1)
  in
  try_level 1

(* One lane's operand pool: the candidate values in order, their arena
   indices (-1 outside it), which are taken, and the mode the last
   {!choose} left its slot in.  Allocated once per reorder call and
   refilled per lane: a pick marks its entry taken instead of rebuilding
   the pool, and taking the first untaken entry equal to the pick is
   exactly the list form's remove-first-occurrence. *)
type pool = {
  vals : Instr.value array;
  ix : int array;
  taken : Bytes.t;
  mutable mode : mode;
}

let is_taken p k = Bytes.unsafe_get p.taken k <> '\000'

let rec first_untaken p k =
  if k >= Array.length p.vals then -1
  else if is_taken p k then first_untaken p (k + 1)
  else k

let rec first_equal p v k =
  if k >= Array.length p.vals then -1
  else if (not (is_taken p k)) && Instr.equal_value p.vals.(k) v then k
  else first_equal p v (k + 1)

(* first untaken entry at or after [k] that [last] matches *)
let rec next_match arena p last last_ix k =
  if k >= Array.length p.vals then -1
  else if (not (is_taken p k)) && matches_at arena last last_ix p.vals.(k) p.ix.(k)
  then k
  else next_match arena p last last_ix (k + 1)

let untaken_list p =
  let rec go k acc =
    if k < 0 then acc
    else go (k - 1) (if is_taken p k then acc else p.vals.(k) :: acc)
  in
  go (Array.length p.vals - 1) []

let value_text (v : Instr.value) = Fmt.str "%a" Printer.pp_value v

(* Listing 6: pick the best untaken pool entry for one slot in one lane,
   given the slot's mode and the previous lane's pick.  Returns the entry's
   index, -1 when the slot defers (already FAILED), and leaves the slot's
   updated mode in [p.mode].  The scan stops at the first match (at the
   second, when an OPCODE slot may go to the look-ahead); a candidate list
   is built only for a tie, or for the decision trace.

   A tracing [?probe] records one [Get_best] event: the candidate set, the
   per-level look-ahead scores of the tie-break, the winner, and the
   Score_cache hit/miss delta of this call. *)
let choose ?meter ?cache ?probe arena (config : Config.t) p (mode : mode)
    (last : Instr.value) =
  let traced =
    match probe with
    | Some pr when Probe.tracing pr ->
      let c = Probe.counters pr in
      Some (pr, untaken_list p, c.Probe.score_hits, c.Probe.score_misses)
    | Some _ | None -> None
  in
  let levels = match traced with Some _ -> Some (ref []) | None -> None in
  p.mode <- mode;
  let k =
    match mode with
    | Failed_mode -> -1
    | Splat_mode -> (
      match first_equal p last 0 with
      | -1 ->
        (* no splat continuation: fall back to the default candidate *)
        let k = first_untaken p 0 in
        if k < 0 then p.mode <- Failed_mode;
        k
      | k -> k)
    | Const_mode | Load_mode | Opcode_mode ->
      let last_ix = arena_index arena last in
      let first = next_match arena p last last_ix 0 in
      if first < 0 then begin
        (* no match: this slot can no longer vectorize; consume the default *)
        p.mode <- Failed_mode;
        first_untaken p 0
      end
      else if
        mode <> Opcode_mode
        || config.Config.lookahead_depth <= 0
        || next_match arena p last last_ix (first + 1) < 0
      then first
      else
        let matching =
          List.filter
            (fun v -> matches_at arena last last_ix v (arena_index arena v))
            (untaken_list p)
        in
        first_equal p
          (tie_break ?meter ?cache ?probe ?levels arena config last matching)
          first
  in
  (match traced with
   | Some (pr, candidates, h0, m0) ->
     let c = Probe.counters pr in
     Probe.record pr
       (Lslp_trace.Trace.Get_best
          {
            mode = mode_to_string mode;
            last = value_text last;
            candidates = List.map value_text candidates;
            levels =
              (match levels with Some acc -> List.rev !acc | None -> []);
            chosen = (if k < 0 then None else Some (value_text p.vals.(k)));
            cache_hits = c.Probe.score_hits - h0;
            cache_misses = c.Probe.score_misses - m0;
          })
   | None -> ());
  k

let pool_of arena (vals : Instr.value array) =
  {
    vals;
    ix = Array.map (arena_index arena) vals;
    taken = Bytes.make (Array.length vals) '\000';
    mode = Failed_mode;
  }

let get_best ?meter ?cache ?probe (config : Config.t) (mode : mode)
    (last : Instr.value) (candidates : Instr.value list) :
    Instr.value option * mode =
  let p = pool_of None (Array.of_list candidates) in
  let k = choose ?meter ?cache ?probe None config p mode last in
  ((if k < 0 then None else Some p.vals.(k)), p.mode)

(* Listing 5: the top-level matrix reorder.  [columns.(slot).(lane)] is the
   unordered operand matrix; the result has the same multiset of values per
   lane, rearranged across slots. *)
let reorder_matrix_modes ?meter ?probe ?arena ?cache
    (config : Config.t) (columns : Instr.value array array) :
    Instr.value array array * mode array =
  let num_slots = Array.length columns in
  if num_slots = 0 then ([||], [||])
  else begin
    (* One score-cache scope per reorder invocation: the operand DAG is
       frozen until this function returns, so memoizing on instruction
       identity is sound, and starting empty here means a rollback (or any
       later mutation) can never observe a stale entry. *)
    let cache =
      if not config.Config.score_cache then None
      else
        match cache with
        | Some c ->
          Score_cache.clear c;
          Some c
        | None -> Some (Score_cache.create ())
    in
    let lanes = Array.length columns.(0) in
    let final = Array.map Array.copy columns in
    let mode = Array.map (fun col -> init_mode col.(0)) columns in
    let p = pool_of arena (Array.map (fun col -> col.(0)) columns) in
    let filled = Bytes.make num_slots '\000' in
    for lane = 1 to lanes - 1 do
      for s = 0 to num_slots - 1 do
        p.vals.(s) <- columns.(s).(lane);
        p.ix.(s) <- arena_index arena p.vals.(s)
      done;
      Bytes.fill p.taken 0 num_slots '\000';
      Bytes.fill filled 0 num_slots '\000';
      for s = 0 to num_slots - 1 do
        match mode.(s) with
        | Failed_mode -> () (* deferred: let others choose first *)
        | Const_mode | Load_mode | Opcode_mode | Splat_mode ->
          let last = final.(s).(lane - 1) in
          let k =
            choose ?meter ?cache ?probe arena config p mode.(s) last
          in
          mode.(s) <- p.mode;
          if k >= 0 then begin
            let v = p.vals.(k) in
            Bytes.unsafe_set p.taken k '\001';
            Bytes.unsafe_set filled s '\001';
            final.(s).(lane) <- v;
            (* SPLAT detection: the exact same value continues the slot *)
            if Instr.equal_value v last && mode.(s) <> Failed_mode then
              mode.(s) <- Splat_mode
          end
      done;
      (* failed slots take the leftovers in order *)
      for s = 0 to num_slots - 1 do
        if Bytes.unsafe_get filled s = '\000' then
          match first_untaken p 0 with
          | -1 -> ()
          | k ->
            Bytes.unsafe_set p.taken k '\001';
            final.(s).(lane) <- p.vals.(k)
      done
    done;
    (match probe with
     | Some pr when Probe.tracing pr ->
       Probe.record pr
         (Lslp_trace.Trace.Slot_modes
            { modes = Array.to_list (Array.map mode_to_string mode) })
     | Some _ | None -> ());
    (final, mode)
  end

let reorder_matrix ?meter ?probe config columns =
  fst (reorder_matrix_modes ?meter ?probe config columns)

(* ------------------------------------------------------------------ *)
(* Vanilla SLP (LLVM 4.0 reorderInputsAccordingToOpcode).              *)

let is_inst = function
  | Instr.Ins _ -> true
  | Instr.Const _ | Instr.Arg _ -> false

let same_opclass a b =
  match (a, b) with
  | Instr.Ins x, Instr.Ins y -> Instr.same_opclass x y
  | (Instr.Const _ | Instr.Arg _ | Instr.Ins _), _ -> false

let consecutive_loads a b =
  match (a, b) with
  | Instr.Ins ia, Instr.Ins ib when Instr.is_load ia && Instr.is_load ib ->
    addr_consecutive ia ib
  | (Instr.Const _ | Instr.Arg _ | Instr.Ins _), _ -> false

(* LLVM 4.0's shouldReorderOperands, operand for operand. *)
let should_reorder ~left ~right ~all_same_left ~all_same_right ~splat_left
    ~splat_right i vleft vright =
  let prev_right = right.(i - 1) in
  let prev_left = left.(i - 1) in
  (* preserve a splat on the right *)
  if splat_right && Instr.equal_value vright prev_right then false
  else if splat_right && Instr.equal_value vleft prev_right then
    if splat_left && Instr.equal_value vleft prev_left then false else true
  else if splat_left && Instr.equal_value vleft prev_left then false
  else if splat_left && Instr.equal_value vright prev_left then true
  else if
    (* preserve a same-opcode column on the right *)
    all_same_right && same_opclass vright prev_right
  then false
  else if all_same_right && same_opclass vleft prev_right then
    if all_same_left && same_opclass vleft prev_left then false else true
  else if all_same_left && same_opclass vleft prev_left then false
  else if all_same_left && same_opclass vright prev_left then true
  else false

let vanilla_pair (insts : Instr.t array) :
    Instr.value array * Instr.value array =
  let n = Array.length insts in
  let operand k (i : Instr.t) =
    match Instr.operands i with
    | [ a; b ] -> if k = 0 then a else b
    | _ -> invalid_arg "Reorder.vanilla_pair: not a binary operation"
  in
  let left = Array.make n (operand 0 insts.(0)) in
  let right = Array.make n (operand 1 insts.(0)) in
  (* peel the first lane: favor having an instruction on the right *)
  (if (not (is_inst right.(0))) && is_inst left.(0) then begin
     let t = left.(0) in
     left.(0) <- right.(0);
     right.(0) <- t
   end);
  let all_same_left = ref (is_inst left.(0)) in
  let all_same_right = ref (is_inst right.(0)) in
  let splat_left = ref true in
  let splat_right = ref true in
  for i = 1 to n - 1 do
    let vleft = operand 0 insts.(i) in
    let vright = operand 1 insts.(i) in
    let swap =
      should_reorder ~left ~right ~all_same_left:!all_same_left
        ~all_same_right:!all_same_right ~splat_left:!splat_left
        ~splat_right:!splat_right i vleft vright
    in
    if swap then begin
      left.(i) <- vright;
      right.(i) <- vleft
    end
    else begin
      left.(i) <- vleft;
      right.(i) <- vright
    end;
    splat_left := !splat_left && Instr.equal_value left.(i - 1) left.(i);
    splat_right := !splat_right && Instr.equal_value right.(i - 1) right.(i);
    all_same_left := !all_same_left && same_opclass left.(i - 1) left.(i);
    all_same_right := !all_same_right && same_opclass right.(i - 1) right.(i)
  done;
  (* trailing pass: swap lanes to extend consecutive-load chains *)
  for j = 0 to n - 2 do
    if consecutive_loads left.(j) right.(j + 1)
       && not (consecutive_loads left.(j) left.(j + 1))
    then begin
      let t = left.(j + 1) in
      left.(j + 1) <- right.(j + 1);
      right.(j + 1) <- t
    end
    else if
      consecutive_loads right.(j) left.(j + 1)
      && not (consecutive_loads right.(j) right.(j + 1))
    then begin
      let t = left.(j + 1) in
      left.(j + 1) <- right.(j + 1);
      right.(j + 1) <- t
    end
  done;
  (left, right)

let no_reorder_pair (insts : Instr.t array) =
  let operand k (i : Instr.t) =
    match Instr.operands i with
    | [ a; b ] -> if k = 0 then a else b
    | _ -> invalid_arg "Reorder.no_reorder_pair: not a binary operation"
  in
  (Array.map (operand 0) insts, Array.map (operand 1) insts)
