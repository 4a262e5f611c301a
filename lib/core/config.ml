(* Vectorizer configuration: selects between the paper's four compiler
   configurations (O3 / SLP-NR / SLP / LSLP) and exposes the two knobs of the
   sensitivity study (Figure 13): look-ahead depth and multi-node size. *)

type reorder_strategy =
  | No_reorder   (* SLP-NR: accept operands as written *)
  | Vanilla      (* SLP: LLVM-4.0-style opcode/splat/consecutive-load swap *)
  | Lookahead    (* LSLP: multi-nodes + mode-driven look-ahead reordering *)

type score_combine = Score_sum | Score_max

type t = {
  name : string;
  strategy : reorder_strategy;
  lookahead_depth : int;
  (* Maximum number of group nodes a multi-node may absorb; [None] is
     unlimited, [Some 1] disables coarsening (the root alone). *)
  max_multinode_groups : int option;
  max_lanes : int option;  (* cap below the target's native width, if any *)
  threshold : int;         (* vectorize iff total cost < threshold *)
  score_combine : score_combine;
  (* Memoize the recursive look-ahead score within each reorder invocation
     (keyed by instr ids + remaining depth + combine mode).  Observationally
     invisible — same operand orders, same IR, same remarks — it only cuts
     repeated score evaluations; the differential test layer proves it. *)
  score_cache : bool;
  model : Lslp_costmodel.Model.t;
  reductions : bool;       (* also vectorize horizontal reduction chains *)
  validate : bool;         (* run the post-pass legality validator *)
  remarks : bool;          (* collect per-region optimization remarks *)
  (* Decision tracing: record the structured event stream (seeds, graph
     shape, per-slot modes, get_best scores, cost verdicts, rollbacks) in
     [Pipeline.report.trace_events].  On, the pipeline attaches one sink
     per run to every block's probe, through which the passes record.
     Default off; the off-path allocates no sink and produces
     byte-identical output. *)
  trace : bool;
  (* Fail-soft knobs: resource caps that make pathological inputs degrade
     instead of hanging, and the fault-injection hook the robustness tests
     and [lslpc --inject] use to force rollbacks at pass boundaries. *)
  budget : Lslp_robust.Budget.t;
  inject : Lslp_robust.Inject.t option;
  (* Per-job cooperative deadline (the compile service's watchdog): ticked
     at the same pass boundaries [inject] instruments; [None] everywhere
     except inside a service worker.  Expiry cancels the job — see
     Budget.Deadline_expired and the deadline-vs-fuel contract in
     DESIGN.md §15. *)
  deadline : Lslp_robust.Budget.deadline option;
}

let default_model = Lslp_costmodel.Model.skylake_avx2

let lslp =
  {
    name = "LSLP";
    strategy = Lookahead;
    lookahead_depth = 8;
    max_multinode_groups = None;
    max_lanes = None;
    threshold = 0;
    score_combine = Score_sum;
    score_cache = true;
    model = default_model;
    reductions = true;
    validate = false;
    remarks = false;
    trace = false;
    budget = Lslp_robust.Budget.default;
    inject = None;
    deadline = None;
  }

let slp = { lslp with name = "SLP"; strategy = Vanilla }

let slp_nr = { lslp with name = "SLP-NR"; strategy = No_reorder }

let lslp_la depth =
  { lslp with name = Fmt.str "LSLP-LA%d" depth; lookahead_depth = depth }

let lslp_multi groups =
  {
    lslp with
    name = Fmt.str "LSLP-Multi%d" groups;
    max_multinode_groups = Some groups;
  }

let with_model model t = { t with model }
let with_threshold threshold t = { t with threshold }
let with_max_lanes n t = { t with max_lanes = Some n }
let with_score_combine score_combine t = { t with score_combine }
let with_score_cache score_cache t = { t with score_cache }
let with_reductions reductions t = { t with reductions }
let with_validate validate t = { t with validate }
let with_remarks remarks t = { t with remarks }
let with_trace trace t = { t with trace }
let with_budget budget t = { t with budget }
let with_inject inject t = { t with inject = Some inject }
let with_deadline deadline t = { t with deadline = Some deadline }

let effective_max_lanes t elt =
  let native = Lslp_costmodel.Model.max_lanes t.model elt in
  match t.max_lanes with Some cap -> min cap native | None -> native

let multinode_limit t =
  match t.max_multinode_groups with Some n -> max 1 n | None -> max_int

(* Everything that can change the *output* of a compile, flattened into a
   stable string: one half of the service's content-addressed cache key
   (the other half is the printed input IR).  [inject] and [deadline]
   are deliberately excluded — the service never caches a run that had an
   injector armed or that failed its deadline, and a run that beat its
   deadline is byte-identical to one with no deadline at all.  [trace] and
   observability flags are excluded for the same reason: they do not touch
   the IR, and the cache stores IR. *)
let fingerprint t =
  let b = Buffer.create 96 in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b ';'
  in
  add t.name;
  add
    (match t.strategy with
     | No_reorder -> "no-reorder"
     | Vanilla -> "vanilla"
     | Lookahead -> "lookahead");
  add (string_of_int t.lookahead_depth);
  add
    (match t.max_multinode_groups with
     | Some n -> string_of_int n
     | None -> "inf");
  add
    (match t.max_lanes with Some n -> string_of_int n | None -> "native");
  add (string_of_int t.threshold);
  add (match t.score_combine with Score_sum -> "sum" | Score_max -> "max");
  add (string_of_bool t.score_cache);
  add t.model.Lslp_costmodel.Model.target_name;
  add (string_of_bool t.reductions);
  add (string_of_bool t.validate);
  add (string_of_bool t.remarks);
  add (Fmt.str "%a" Lslp_robust.Budget.pp t.budget);
  Buffer.contents b
