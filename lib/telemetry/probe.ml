(* Pass-level instrumentation.

   A probe is a mutable bag of counters plus per-pass step counts that
   the pipeline hands to every stage (seed collection, graph building,
   reordering, costing, codegen, reduction, cleanup).  Counters are plain
   ints bumped on the hot path — cheap enough to stay always-on — and
   every [span] charges one step to its pass name.

   It is also the passes' only way into the decision trace: with the run's
   sink attached, [span] brackets each pass with Span_begin/Span_end and
   [record] appends events, all stamped with the probe's block label.
   Without one, [tracing] is false and sites skip building their payload.

   Counters and steps are both deterministic for a given input and
   configuration, so every renderer in {!Report} can be pinned by a
   golden test. *)

type counters = {
  mutable seeds_collected : int;   (* seed bundles found by Seeds.collect *)
  mutable seeds_tried : int;       (* seed bundles the driver attempted *)
  mutable score_evals : int;       (* look-ahead score computations *)
  mutable score_hits : int;        (* comparisons served from the cache *)
  mutable score_misses : int;      (* cacheable comparisons computed *)
  mutable graph_nodes : int;       (* fresh SLP-graph nodes built *)
  mutable instrs_emitted : int;    (* instructions codegen materialized *)
  mutable regions_vectorized : int;
  mutable regions_degraded : int;  (* regions rolled back to scalar *)
}

let zero_counters () =
  {
    seeds_collected = 0;
    seeds_tried = 0;
    score_evals = 0;
    score_hits = 0;
    score_misses = 0;
    graph_nodes = 0;
    instrs_emitted = 0;
    regions_vectorized = 0;
    regions_degraded = 0;
  }

let copy_counters c =
  {
    seeds_collected = c.seeds_collected;
    seeds_tried = c.seeds_tried;
    score_evals = c.score_evals;
    score_hits = c.score_hits;
    score_misses = c.score_misses;
    graph_nodes = c.graph_nodes;
    instrs_emitted = c.instrs_emitted;
    regions_vectorized = c.regions_vectorized;
    regions_degraded = c.regions_degraded;
  }

let add_counters ~into c =
  into.seeds_collected <- into.seeds_collected + c.seeds_collected;
  into.seeds_tried <- into.seeds_tried + c.seeds_tried;
  into.score_evals <- into.score_evals + c.score_evals;
  into.score_hits <- into.score_hits + c.score_hits;
  into.score_misses <- into.score_misses + c.score_misses;
  into.graph_nodes <- into.graph_nodes + c.graph_nodes;
  into.instrs_emitted <- into.instrs_emitted + c.instrs_emitted;
  into.regions_vectorized <- into.regions_vectorized + c.regions_vectorized;
  into.regions_degraded <- into.regions_degraded + c.regions_degraded

(* The printable/serializable column set, in display order.  One list so
   the human table, the JSON renderer and the CSV emitters cannot drift. *)
let counter_fields =
  [
    ("seeds", fun c -> c.seeds_collected);
    ("tried", fun c -> c.seeds_tried);
    ("evals", fun c -> c.score_evals);
    ("hits", fun c -> c.score_hits);
    ("misses", fun c -> c.score_misses);
    ("nodes", fun c -> c.graph_nodes);
    ("emitted", fun c -> c.instrs_emitted);
    ("vec", fun c -> c.regions_vectorized);
    ("degraded", fun c -> c.regions_degraded);
  ]

type t = {
  c : counters;
  steps : (string * int ref) list ref;  (* pass, calls; newest first *)
  sink : (Lslp_trace.Trace.t * string) option;  (* the sink, block label *)
}

let create ?sink ?(label = "") () =
  {
    c = zero_counters ();
    steps = ref [];
    sink = (match sink with Some tr -> Some (tr, label) | None -> None);
  }

let counters t = t.c

let tracing t = match t.sink with Some _ -> true | None -> false

let record t payload =
  match t.sink with
  | Some (tr, region) -> Lslp_trace.Trace.record ~region tr payload
  | None -> ()

let fresh_gid t =
  match t.sink with Some (tr, _) -> Lslp_trace.Trace.fresh_gid tr | None -> 0

(* Add [n] steps to [pass]; a pass already seen costs no allocation.  A
   run has a handful of pass names, so a list is the whole table, scanned
   with [String.equal] rather than a polymorphic compare. *)
let rec bump pass n = function
  | [] -> false
  | (p, calls) :: rest ->
    (String.equal p pass && (calls := !calls + n; true)) || bump pass n rest

let charge steps pass n =
  if not (bump pass n !steps) then steps := (pass, ref n) :: !steps

(* first-seen order *)
let ordered steps = List.rev_map (fun (pass, calls) -> (pass, !calls)) !steps

(* The step is charged on entry, so a pass that raises (a budget abort
   into the transaction layer) is still counted.  The end event fires on
   the exception path too, so spans stay well-nested. *)
let span t pass f =
  charge t.steps pass 1;
  match t.sink with
  | None -> f ()
  | Some _ ->
    record t (Lslp_trace.Trace.Span_begin { pass });
    Fun.protect
      ~finally:(fun () -> record t (Lslp_trace.Trace.Span_end { pass }))
      f

type snapshot = {
  s_counters : counters;
  s_steps : (string * int) list;  (* pass, calls *)
}

let snapshot t =
  { s_counters = copy_counters t.c; s_steps = ordered t.steps }

let empty_snapshot = { s_counters = zero_counters (); s_steps = [] }

let merge snapshots =
  let c = zero_counters () in
  let steps = ref [] in
  List.iter
    (fun s ->
      add_counters ~into:c s.s_counters;
      List.iter (fun (pass, calls) -> charge steps pass calls) s.s_steps)
    snapshots;
  { s_counters = c; s_steps = ordered steps }
