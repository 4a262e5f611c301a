(* Test-only reference: the list-based operand reorder as it stood before
   the array pool and the arena adjacency — pool rebuilt per lane with
   [Array.to_list], candidates filtered into lists, picks removed with
   [remove_once], load adjacency through [Addr.consecutive] and score-cache
   keys through interned instruction ids.  The QCheck properties in
   [test_reorder] hold the production [Reorder] to it: same matrices,
   modes, probe counters, fuel and trace events. *)

open Lslp_ir
open Lslp_analysis
open Lslp_core
module Score_cache = Lslp_telemetry.Score_cache

type mode = Reorder.mode =
  | Const_mode
  | Load_mode
  | Opcode_mode
  | Splat_mode
  | Failed_mode

let mode_to_string = Reorder.mode_to_string

(* The paper's are_consecutive_or_match: constants match constants, loads
   match consecutive loads, other instructions match on opcode class. *)
let consecutive_or_match (v1 : Instr.value) (v2 : Instr.value) =
  match (v1, v2) with
  | Instr.Const _, Instr.Const _ -> true
  | Instr.Arg _, Instr.Arg _ -> Instr.equal_value v1 v2
  | Instr.Ins a, Instr.Ins b -> (
    match (Instr.address a, Instr.address b) with
    | Some aa, Some ab when Instr.is_load a && Instr.is_load b ->
      Addr.consecutive aa ab
    | _ -> Instr.equal_opclass (Instr.opclass a) (Instr.opclass b))
  | (Instr.Const _ | Instr.Arg _ | Instr.Ins _), _ -> false

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
let pair_score (v1 : Instr.value) (v2 : Instr.value) =
  if Instr.equal_value v1 v2 then 2
  else
    match (v1, v2) with
    | Instr.Const _, Instr.Const _ -> 1
    | Instr.Ins a, Instr.Ins b when Instr.is_load a && Instr.is_load b -> (
      match (Instr.address a, Instr.address b) with
      | Some aa, Some ab when Addr.consecutive aa ab -> 2
      | _ -> 0)
    | Instr.Ins a, Instr.Ins b ->
      if Instr.equal_opclass (Instr.opclass a) (Instr.opclass b) then 1 else 0
    | (Instr.Const _ | Instr.Arg _ | Instr.Ins _), _ -> 0

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
   Lslp_telemetry.Score_cache).  A cache hit skips the recursion entirely
   and therefore burns no look-ahead fuel: under a tight budget the cached
   run can only get further than the uncached one, never less far.
   [probe] counts evaluations and cache hits/misses. *)
let combine_tag = function Config.Score_sum -> 0 | Config.Score_max -> 1

let rec lookahead_score ?meter ?cache ?probe
    ~(combine : Config.score_combine) (v1 : Instr.value) (v2 : Instr.value)
    ~(level : int) : int =
  match (cache, v1, v2) with
  | Some c, Instr.Ins i1, Instr.Ins i2 -> (
    let a = i1.Instr.id and b = i2.Instr.id in
    let mode = combine_tag combine in
    match Score_cache.find c ~a ~b ~level ~mode with
    | s when s <> Score_cache.absent ->
      Option.iter
        (fun p ->
          let pc = Lslp_telemetry.Probe.counters p in
          pc.Lslp_telemetry.Probe.score_hits <-
            pc.Lslp_telemetry.Probe.score_hits + 1)
        probe;
      s
    | _ ->
      Option.iter
        (fun p ->
          let pc = Lslp_telemetry.Probe.counters p in
          pc.Lslp_telemetry.Probe.score_misses <-
            pc.Lslp_telemetry.Probe.score_misses + 1)
        probe;
      let s = lookahead_score_compute ?meter ?cache ?probe ~combine v1 v2 ~level in
      Score_cache.store c ~a ~b ~level ~mode s;
      s)
  | (Some _ | None), _, _ ->
    lookahead_score_compute ?meter ?cache ?probe ~combine v1 v2 ~level

and lookahead_score_compute ?meter ?cache ?probe
    ~(combine : Config.score_combine) (v1 : Instr.value) (v2 : Instr.value)
    ~(level : int) : int =
  (* Each recursive comparison burns one unit of fuel, so a pathological
     deeply-shared DAG bails with [Budget.Exhausted] instead of going
     exponential. *)
  Option.iter Lslp_robust.Budget.spend_fuel meter;
  Option.iter
    (fun p ->
      let pc = Lslp_telemetry.Probe.counters p in
      pc.Lslp_telemetry.Probe.score_evals <-
        pc.Lslp_telemetry.Probe.score_evals + 1)
    probe;
  let base () = pair_score v1 v2 in
  if level <= 0 || Instr.equal_value v1 v2 then base ()
  else
    match (v1, v2) with
    | Instr.Ins a, Instr.Ins b
      when Instr.equal_opclass (Instr.opclass a) (Instr.opclass b)
           && (not (Instr.is_load a))
           && Instr.operands a <> [] && Instr.operands b <> [] -> (
      let score x y =
        lookahead_score ?meter ?cache ?probe ~combine x y ~level:(level - 1)
      in
      match (Instr.operands a, Instr.operands b, combine) with
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
      | _ -> base ())
    | (Instr.Const _ | Instr.Arg _ | Instr.Ins _), _ -> base ()

let init_mode (v : Instr.value) =
  match v with
  | Instr.Const _ | Instr.Arg _ -> Const_mode
  | Instr.Ins i -> if Instr.is_load i then Load_mode else Opcode_mode

(* Remove the first occurrence of [v] (by value identity) from [pool]. *)
let remove_once pool v =
  let rec go = function
    | [] -> []
    | x :: rest -> if Instr.equal_value x v then rest else x :: go rest
  in
  go pool

(* Listing 6: pick the best candidate for one slot in one lane.  Returns the
   choice (None = deferred, slot already FAILED) and the updated mode.

   [Config.score_cache] controls all memoization.  With it on and no
   caller-supplied [cache], the tie-break still memoizes within itself:
   [try_level] deepens from level 1 until the candidate scores separate,
   and hoisting each candidate's per-level results into a candidate-local
   cache makes every deepening step extend the previous one instead of
   recomputing it.  A caller-supplied [cache] widens the reuse across
   slots, lanes and candidates.  With [score_cache] off, scoring is the
   paper's Listing 7 as written — the baseline the telemetry counters
   measure against. *)
let value_text (v : Instr.value) = Fmt.str "%a" Printer.pp_value v


let get_best ?meter ?cache ?probe ?trace (config : Config.t) (mode : mode)
    (last : Instr.value) (candidates : Instr.value list) :
    Instr.value option * mode =
  (* Decision-trace bookkeeping: the per-level scores of the tie-break and
     the Score_cache traffic this call generated.  Reads only; the search
     itself is untouched, traced or not. *)
  let levels_acc = ref [] in
  let cache_base =
    match (trace, probe) with
    | Some _, Some p ->
      let c = Lslp_telemetry.Probe.counters p in
      Some
        ( c.Lslp_telemetry.Probe.score_hits,
          c.Lslp_telemetry.Probe.score_misses )
    | (Some _ | None), _ -> None
  in
  let result =
    match mode with
    | Failed_mode -> (None, Failed_mode)
    | Splat_mode -> (
      match List.find_opt (Instr.equal_value last) candidates with
      | Some v -> (Some v, Splat_mode)
      | None -> (
        (* no splat continuation: fall back to the default candidate *)
        match candidates with
        | v :: _ -> (Some v, Splat_mode)
        | [] -> (None, Failed_mode)))
    | Const_mode | Load_mode | Opcode_mode -> (
      let matching = List.filter (consecutive_or_match last) candidates in
      match matching with
      | [] -> (
        (* no match: this slot can no longer vectorize; consume the default *)
        match candidates with
        | v :: _ -> (Some v, Failed_mode)
        | [] -> (None, Failed_mode))
      | [ v ] -> (Some v, mode)
      | _ :: _ when mode = Opcode_mode && config.Config.lookahead_depth > 0
        ->
        (* look-ahead tie-break: deepen until the scores separate *)
        let combine = config.Config.score_combine in
        let with_caches =
          match cache with
          | Some c -> List.map (fun cand -> (cand, Some c)) matching
          | None when config.Config.score_cache ->
            (* per-candidate hoist: level k+1 recurses through exactly the
               (pair, level<=k) comparisons the level-k round computed for
               this candidate, so each deepening step extends the previous
               one instead of re-scoring from level 1. *)
            List.map
              (fun cand ->
                (cand, Some (Score_cache.create ())))
              matching
          | None ->
            (* memoization off: the paper's Listing 7 as written — the
               baseline the telemetry counters measure speedups against *)
            List.map (fun cand -> (cand, None)) matching
        in
        let rec try_level level =
          let scores =
            List.map
              (fun (c, ccache) ->
                ( c,
                  lookahead_score ?meter ?cache:ccache ?probe ~combine last c
                    ~level ))
              with_caches
          in
          if trace <> None then
            levels_acc := (level, List.map snd scores) :: !levels_acc;
          let all_equal =
            match scores with
            | [] -> true
            | (_, s0) :: rest -> List.for_all (fun (_, s) -> s = s0) rest
          in
          if not all_equal then
            let best, _ =
              List.fold_left
                (fun (bv, bs) (c, s) -> if s > bs then (c, s) else (bv, bs))
                (List.hd matching, min_int)
                scores
            in
            best
          else if level >= config.Config.lookahead_depth then List.hd matching
          else try_level (level + 1)
        in
        (Some (try_level 1), mode)
      | first :: _ -> (Some first, mode))
  in
  Option.iter
    (fun tr ->
      let cache_hits, cache_misses =
        match (cache_base, probe) with
        | Some (h0, m0), Some p ->
          let c = Lslp_telemetry.Probe.counters p in
          ( c.Lslp_telemetry.Probe.score_hits - h0,
            c.Lslp_telemetry.Probe.score_misses - m0 )
        | _ -> (0, 0)
      in
      Lslp_trace.Trace.record tr
        (Lslp_trace.Trace.Get_best
           {
             mode = mode_to_string mode;
             last = value_text last;
             candidates = List.map value_text candidates;
             levels = List.rev !levels_acc;
             chosen = Option.map value_text (fst result);
             cache_hits;
             cache_misses;
           }))
    trace;
  result

(* Listing 5: the top-level matrix reorder.  [columns.(slot).(lane)] is the
   unordered operand matrix; the result has the same multiset of values per
   lane, rearranged across slots. *)
let reorder_matrix_modes ?meter ?probe ?trace (config : Config.t)
    (columns : Instr.value array array) :
    Instr.value array array * mode array =
  let num_slots = Array.length columns in
  if num_slots = 0 then ([||], [||])
  else begin
    (* One score cache per reorder invocation: the operand DAG is frozen
       until this function returns, so memoizing on instruction ids is
       sound, and dropping the cache here means a rollback (or any later
       mutation) can never observe a stale entry. *)
    let cache =
      if config.Config.score_cache then
        Some (Score_cache.create ())
      else None
    in
    let lanes = Array.length columns.(0) in
    let final : Instr.value option array array =
      Array.make_matrix num_slots lanes None
    in
    let mode = Array.make num_slots Failed_mode in
    (* 1. strip the first lane in its existing order *)
    for s = 0 to num_slots - 1 do
      final.(s).(0) <- Some columns.(s).(0);
      mode.(s) <- init_mode columns.(s).(0)
    done;
    (* 2. for every other lane, fill slots left to right *)
    for lane = 1 to lanes - 1 do
      let pool = ref (Array.to_list (Array.map (fun col -> col.(lane)) columns)) in
      for s = 0 to num_slots - 1 do
        match mode.(s) with
        | Failed_mode -> () (* deferred: let others choose first *)
        | _ ->
          let last =
            match final.(s).(lane - 1) with
            | Some v -> v
            | None -> columns.(s).(lane - 1)
          in
          let best, mode' =
            get_best ?meter ?cache ?probe ?trace config mode.(s) last !pool
          in
          mode.(s) <- mode';
          (match best with
           | Some v ->
             final.(s).(lane) <- Some v;
             pool := remove_once !pool v;
             (* SPLAT detection: the exact same value continues the slot *)
             if Instr.equal_value v last && mode.(s) <> Failed_mode then
               mode.(s) <- Splat_mode
           | None -> ())
      done;
      (* failed slots take the leftovers in order *)
      for s = 0 to num_slots - 1 do
        if final.(s).(lane) = None then begin
          match !pool with
          | v :: rest ->
            final.(s).(lane) <- Some v;
            pool := rest
          | [] -> ()
        end
      done
    done;
    Option.iter
      (fun tr ->
        Lslp_trace.Trace.record tr
          (Lslp_trace.Trace.Slot_modes
             { modes = Array.to_list (Array.map mode_to_string mode) }))
      trace;
    (Array.map (Array.map Option.get) final, mode)
  end
