(** Operand reordering strategies.

    [vanilla_pair] ports LLVM 4.0's reorderInputsAccordingToOpcode (the
    paper's SLP baseline); [reorder_matrix] implements LSLP's mode-driven,
    look-ahead-scored single-pass reorder over the (operand-slot × lane)
    matrix (Listings 5-7).

    Every step of the matrix reorder is an array read or an int compare:
    each lane's operand pool is one array plus a taken mask, and with
    [?arena] (the block's {!Lslp_ir.Arena}) load adjacency comes from
    compact indices, falling back to [Addr.consecutive] for a load outside
    the arena.  Score-cache keys are the instructions' own ids, unique
    within their function, in or out of the arena.  [?arena] never changes a
    decision, a counter or a trace event — only what a step costs.  Only
    {!reorder_matrix_modes} takes it; the single-pair functions and
    {!get_best} are the arena-less forms, which decide the same. *)

open Lslp_ir

type mode = Const_mode | Load_mode | Opcode_mode | Splat_mode | Failed_mode

val mode_to_string : mode -> string

val consecutive_or_match : Instr.value -> Instr.value -> bool
(** Constants match constants, loads match consecutive loads, other
    instructions match on opcode class, arguments match themselves. *)

val pair_score : Instr.value -> Instr.value -> int
(** Graded base score for the look-ahead: identical values and consecutive
    loads score 2, constants and same-opcode instructions 1, everything else
    (including non-consecutive loads) 0. *)

val lookahead_score :
  ?meter:Lslp_robust.Budget.meter ->
  ?cache:Lslp_telemetry.Score_cache.t ->
  ?probe:Lslp_telemetry.Probe.t ->
  combine:Config.score_combine ->
  Instr.value ->
  Instr.value ->
  level:int ->
  int
(** Listing 7: recursive match count between two sub-DAGs down to [level].
    With [?meter], every computed comparison spends one unit of look-ahead
    fuel and the whole reorder bails with [Budget.Exhausted] when the cap is
    hit — the defense against exponentially-shared DAGs.
    With [?cache], instruction/instruction comparisons memoize on
    (instruction, instruction, level, combine); hits skip the recursion and
    burn no fuel.  The cache is only sound while the operand DAG is frozen
    — scope it to one reorder invocation.  [?probe] counts evaluations and
    hits/misses.  A two-operand comparison (binary op or compare) builds
    no operand list; its four sub-comparisons run in the list form's
    order. *)

val init_mode : Instr.value -> mode

val get_best :
  ?meter:Lslp_robust.Budget.meter ->
  ?probe:Lslp_telemetry.Probe.t ->
  Config.t ->
  mode ->
  Instr.value ->
  Instr.value list ->
  Instr.value option * mode
(** Listing 6: choose among candidates given the slot's mode and the
    previous lane's pick; [None] means the slot defers (already FAILED).
    One call is one memo scope, as in {!reorder_matrix_modes}.  A tracing
    [?probe] records one [Get_best] event per call: the candidate set,
    the per-level look-ahead scores of the tie-break, the winner, and the
    Score_cache hit/miss delta of the call. *)

val reorder_matrix :
  ?meter:Lslp_robust.Budget.meter ->
  ?probe:Lslp_telemetry.Probe.t ->
  Config.t ->
  Instr.value array array ->
  Instr.value array array
(** Listing 5 over [columns.(slot).(lane)].  Preserves each lane's multiset
    of operands; lane 0 is kept as-is.  The look-ahead memoizes as in
    {!reorder_matrix_modes}. *)

val reorder_matrix_modes :
  ?meter:Lslp_robust.Budget.meter ->
  ?probe:Lslp_telemetry.Probe.t ->
  ?arena:Arena.t ->
  Config.t ->
  Instr.value array array ->
  Instr.value array array * mode array
(** Like {!reorder_matrix}, but also returns the final per-slot mode —
    [Failed_mode] slots are the ones the remarks engine reports; a tracing
    [?probe] additionally records the [Slot_modes] assignment (paper
    Table 1) and one [Get_best] event per (slot, lane) choice.  With
    [Config.score_cache] the look-ahead memoizes in the calling domain's
    table ({!Lslp_telemetry.Score_cache.acquire}), taken by the call's
    first tie-break, cleared as it is taken and released when the call
    returns or raises; a call that never scores never touches it.
    Entries live for exactly one call.  Reorder calls must not nest on
    one domain. *)

val vanilla_pair : Instr.t array -> Instr.value array * Instr.value array
(** LLVM-4.0-faithful two-operand reorder (peeled lane 0, splat /
    same-opcode preservation, trailing consecutive-load pass). *)

val no_reorder_pair : Instr.t array -> Instr.value array * Instr.value array
