(* The pass driver: the flowchart of the paper's Figure 1, run once per
   region (basic block) of the function.

   For each block: collect seeds; for each seed group build the (L)SLP
   graph, evaluate its cost against the threshold, and if profitable
   generate vector code and clean up.  The function is transformed in
   place; the report holds one verdict per region, a [Lslp_check.Remark.t]
   keyed by the label of the block it lives in.

   The driver is *fail-soft*: every mutating stage (graph build, codegen,
   reduction, per-block CSE/DCE) runs inside a transaction
   ([Lslp_robust.Transact]).  A snapshot of the block is taken first; any
   exception — a malformed graph, a budget cap, an injected fault, a
   structural-verifier finding on the transformed block — rolls the region
   back to its scalar form and records a [Degraded] outcome instead of
   escaping [run].  Only [Out_of_memory] and [Sys.Break] propagate.

   Two optional companions ride along, controlled by the config:

   - [validate]: a dependence-graph snapshot is taken before anything is
     mutated, code generation reports the scalar lanes behind every vector
     instruction it emits, and the transformed function is re-checked
     against the snapshot (plus the structural verifier after each pass) —
     see [Lslp_check.Legality].
   - [remarks]: the verdicts again, plus the reduction candidates too
     narrow to vectorize, with notes collected while the graph was built. *)

open Lslp_ir
module Budget = Lslp_robust.Budget
module Inject = Lslp_robust.Inject
module Transact = Lslp_robust.Transact
module Probe = Lslp_telemetry.Probe
module Remark = Lslp_check.Remark
module Trace = Lslp_trace.Trace

type report = {
  config_name : string;
  regions : Remark.t list;  (* one verdict per region, in decision order *)
  total_cost : int;     (* sum of costs of the regions actually vectorized *)
  vectorized_regions : int;
  degraded_regions : int;  (* regions rolled back to scalar by a failure *)
  remarks : Remark.t list;                     (* empty unless [remarks] *)
  diagnostics : Lslp_check.Diagnostic.t list;  (* empty unless [validate] *)
  telemetry : Lslp_telemetry.Report.t;  (* counters + steps, always on *)
  trace_events : Trace.event list;  (* empty unless [trace] *)
}

(* The counts are folds over the verdicts, so they cannot disagree with
   the region list. *)
let make_report ~(config : Config.t) ~regions ~remarks ~diagnostics
    ~telemetry ~sink =
  let vectorized =
    List.filter (fun r -> r.Remark.outcome = Remark.Vectorized) regions
  in
  let degraded =
    List.filter
      (fun r ->
        match r.Remark.outcome with
        | Remark.Degraded _ | Remark.Budget_exhausted _ -> true
        | _ -> false)
      regions
  in
  {
    config_name = config.Config.name;
    regions;
    total_cost =
      List.fold_left
        (fun acc r -> acc + Option.value ~default:0 r.Remark.cost)
        0 vectorized;
    vectorized_regions = List.length vectorized;
    degraded_regions = List.length degraded;
    remarks;
    diagnostics;
    telemetry;
    trace_events =
      (match sink with Some tr -> Trace.events tr | None -> []);
  }

(* The one place a transaction failure becomes a verdict. *)
let outcome_of_failure (failure : Transact.failure) =
  let pass = failure.Transact.pass in
  if failure.Transact.budget_exhausted then
    Remark.Budget_exhausted { pass; what = failure.Transact.error }
  else Remark.Degraded { pass; error = failure.Transact.error }

let verdict (config : Config.t) ~block ~region ~lanes ?cost ?(notes = [])
    outcome =
  {
    Remark.region;
    block;
    lanes;
    cost;
    threshold = config.Config.threshold;
    outcome;
    notes;
  }

(* Raw build notes arrive one per event; fold duplicate column rejections
   into counts and duplicate cap/FAILED events into one note each. *)
let aggregate_notes (notes : Remark.note list) : Remark.note list =
  let open Remark in
  let columns : (string * int) list ref = ref [] in
  let failed_slots = ref 0 in
  let capped = ref None in
  let seed_rejected = ref None in
  List.iter
    (function
      | Column_rejected { reason; count } ->
        let cur =
          Option.value ~default:0 (List.assoc_opt reason !columns)
        in
        columns :=
          (reason, cur + count) :: List.remove_assoc reason !columns
      | Operand_mode_failed { slots } -> failed_slots := !failed_slots + slots
      | Multinode_capped _ as n ->
        if !capped = None then capped := Some n
      | Seed_rejected _ as n ->
        if !seed_rejected = None then seed_rejected := Some n)
    notes;
  Option.to_list !seed_rejected
  @ (if !failed_slots > 0 then
       [ Operand_mode_failed { slots = !failed_slots } ]
     else [])
  @ Option.to_list !capped
  @ List.rev_map
      (fun (reason, count) -> Column_rejected { reason; count })
      !columns

(* The unprotected driver: individual regions are transactional, but a bug
   in the driver itself (or in seed collection) would still escape — [run]
   adds the whole-function safety net around this.  [sink] is the run's
   decision trace, which every block probe carries; [None] unless
   [config.trace]. *)
let run_unprotected ~sink ~(config : Config.t) (f : Func.t) : report =
  let open Lslp_check in
  let inject = config.Config.inject in
  (* the service's cooperative watchdog: one tick at every boundary the
     injector instruments; None (the default) costs a single match *)
  let deadline = config.Config.deadline in
  (* run-wide SLP-graph node-id source: nids stay unique across every graph
     of this run (the DOT exporter relies on it) and start from 1 on every
     run, so concurrent runs on other domains number independently *)
  let graph_ids = Lslp_util.Id_gen.create ~first:1 () in
  let diagnostics = ref [] in
  let snap =
    if config.Config.validate then
      match Legality.snapshot f with
      | s -> Some s
      | exception ((Out_of_memory | Sys.Break) as fatal) -> raise fatal
      | exception e ->
        diagnostics :=
          [ Diagnostic.warning ~rule:"legality:snapshot"
              (Fmt.str "dependence snapshot failed (%s); validation skipped"
                 (Printexc.to_string e)) ];
        None
    else None
  in
  let provenance : Legality.lane_provenance list ref = ref [] in
  let record_opt =
    if config.Config.validate then
      Some
        (fun ~lanes ~vector ->
          provenance :=
            { Legality.lanes = Array.copy lanes; vector } :: !provenance)
    else None
  in
  (* in-transaction structural check: runs on freshly transformed blocks
     and *aborts* the region on a finding, so a miscompile degrades to
     scalar instead of reaching the caller.  On success, the checked arena
     of [block], which describes its state exactly as verified. *)
  let verify_or_abort pass block =
    match Verifier.check_func_arenas f with
    | Ok arenas -> List.find (fun a -> Arena.block a == block) arenas
    | Error [] -> assert false
    | Error (e :: _) ->
      raise
        (Transact.Check_failed
           { pass; error = Verifier.error_to_string e })
  in
  (* Regions are self-contained (no cross-block values), so each block is
     an independent vectorization universe: seeds, graphs, reductions and
     the consumed-store bookkeeping never cross a block boundary.  Each
     block gets its own budget meter and its own probe, made here once.
     The probe is the block's only observability handle: it carries the
     sink, so every span and event a pass records is stamped with the
     block's label.  Counters measure work *performed*, so a rolled-back
     attempt keeps its score evaluations and graph nodes — only
     [instrs_emitted] (inside codegen) and the outcome counters (in
     [conclude]) are charged on commit. *)
  let blocks =
    List.map
      (fun block ->
        ( block,
          Probe.create ?sink ~label:(Block.label block) (),
          Budget.meter config.Config.budget ))
      (Func.blocks f)
  in
  let regions = ref [] in
  let remarks = ref [] in
  (* The one place a region's verdict is recorded: the region list, the
     block probe's outcome counters, the rollback/outcome trace events and,
     with [config.remarks], the remark.  Reductions trace their own
     outcomes ([~traced:false]); an unmatched reduction is only a remark. *)
  let conclude ?(traced = true) ~probe (r : Remark.t) =
    let c = Probe.counters probe in
    let traced = traced && Probe.tracing probe in
    let outcome name =
      if traced then
        Probe.record probe
          (Trace.Region_outcome
             { seed = r.Remark.region; lanes = r.Remark.lanes;
               outcome = name; cost = r.Remark.cost })
    in
    let rollback pass error budget_exhausted =
      c.Probe.regions_degraded <- c.Probe.regions_degraded + 1;
      if traced then
        Probe.record probe (Trace.Rollback { pass; error; budget_exhausted });
      outcome "degraded"
    in
    (match r.Remark.outcome with
     | Remark.Vectorized ->
       c.Probe.regions_vectorized <- c.Probe.regions_vectorized + 1;
       outcome "vectorized"
     | Remark.Not_schedulable -> outcome "not-schedulable"
     | Remark.Unprofitable -> outcome "rejected-cost"
     | Remark.Degraded { pass; error } -> rollback pass error false
     | Remark.Budget_exhausted { pass; what } -> rollback pass what true
     | Remark.Reduction_unmatched _ -> ());
    (match r.Remark.outcome with
     | Remark.Reduction_unmatched _ -> ()
     | _ -> regions := r :: !regions);
    if config.Config.remarks then remarks := r :: !remarks
  in
  let degrade ~probe ~block ~region ~lanes failure =
    conclude ~probe
      (verdict config ~block ~region ~lanes (outcome_of_failure failure))
  in
  let run_block (block, probe, meter) =
    let region_id = Block.label block in
    let pc = Probe.counters probe in
    let exhausted = ref false in
    let continue_ = ref true in
    let consumed = Lslp_util.Int_table.create 32 in
    (* the most recent arena snapshot that still describes the block's
       current state.  Every attempt takes its snapshot before mutating
       anything, and a rollback restores exactly the snapshotted state, so
       the arena survives failed and unvectorized attempts.  A committed
       region replaces it with the arena the verifier built and checked on
       the committed block, so the next attempt and, at loop exit, the
       reduction pass read it as-is instead of rebuilding it *)
    let live_arena = ref None in
    while !continue_ && not !exhausted do
      continue_ := false;
      let snapshot = Transact.snapshot_block block in
      (* the arena of the state a rollback of this attempt restores *)
      let entry_arena = ref !live_arena in
      let saved_provenance = !provenance in
      let cur_pass = ref "seed-collect" in
      let cur_seed = ref None in
      let result =
        Transact.protect ~snapshot ~pass:(fun () -> !cur_pass) (fun () ->
            Budget.spend_step meter;
            (* one arena snapshot per attempt: seeds, graph build, cost and
               codegen all read the block in this same frozen state *)
            let arena =
              match !live_arena with
              | Some a -> a
              | None -> Arena.of_block block
            in
            entry_arena := Some arena;
            live_arena := Some arena;
            let seeds =
              Probe.span probe "seed-collect" (fun () ->
                  Seeds.collect ~arena ~probe config block)
            in
            let fresh =
              List.filter
                (fun (s : Seeds.seed) ->
                  Array.for_all
                    (fun (i : Instr.t) ->
                      (not (Lslp_util.Int_table.mem consumed i.id))
                      && Arena.mem arena i)
                    s)
                seeds
            in
            match fresh with
            | [] -> None
            | seed :: _ ->
              (* consume the seed and arm the retry *before* any fallible
                 work: a failure must not make this seed come back forever *)
              Array.iter
                (fun (i : Instr.t) ->
                  Lslp_util.Int_table.set consumed i.id 1)
                seed;
              continue_ := true;
              cur_seed := Some seed;
              let desc = Seeds.describe seed and lanes = Array.length seed in
              pc.Probe.seeds_tried <- pc.Probe.seeds_tried + 1;
              if Probe.tracing probe then
                Probe.record probe (Trace.Seed_tried { seed = desc; lanes });
              cur_pass := "graph-build";
              Budget.deadline_tick deadline;
              Inject.maybe_fail inject Inject.Graph_build;
              let notes = ref [] in
              let note =
                if config.Config.remarks then
                  Some (fun n -> notes := n :: !notes)
                else None
              in
              let graph, root, deps =
                Probe.span probe "graph-build" (fun () ->
                    let deps = Lslp_analysis.Depgraph.build_arena arena in
                    let g, r =
                      Graph_builder.build ?note ~meter ~probe ~ids:graph_ids
                        ~deps config block seed
                    in
                    (g, r, deps))
              in
              cur_pass := "cost";
              let cost =
                Probe.span probe "cost" (fun () ->
                    Cost.evaluate ~uses:(Use_info.of_arena arena) config
                      graph block)
              in
              if Probe.tracing probe then
                Probe.record probe
                  (Trace.Cost_computed
                     {
                       seed = desc;
                       nodes = List.length (Graph.nodes graph);
                       total = cost.Cost.total;
                       threshold = config.Config.threshold;
                       accepted = Cost.profitable config cost;
                     });
              cur_pass := "codegen";
              let outcome =
                if Cost.profitable config cost then begin
                  Budget.deadline_tick deadline;
                  Inject.maybe_fail inject Inject.Codegen;
                  match
                    Probe.span probe "codegen" (fun () ->
                        Codegen.run ?record:record_opt ~probe ~deps graph
                          block)
                  with
                  | Codegen.Vectorized ->
                    live_arena := None;
                    if Inject.corrupts inject then
                      ignore (Inject.corrupt_block block);
                    cur_pass := "verify";
                    Budget.deadline_tick deadline;
                    Inject.maybe_fail inject Inject.Verify;
                    live_arena := Some (verify_or_abort "verify" block);
                    Remark.Vectorized
                  | Codegen.Not_schedulable -> Remark.Not_schedulable
                  | Codegen.Failed msg ->
                    raise
                      (Transact.Check_failed { pass = "codegen"; error = msg })
                end
                else Remark.Unprofitable
              in
              (* the first bundle built is the seed itself: if the root is a
                 gather, its rejection explains the whole region *)
              let notes =
                match (root.Graph.shape, List.rev !notes) with
                | Graph.Gather _, Remark.Column_rejected { reason; _ } :: rest
                  ->
                  Remark.Seed_rejected { reason } :: rest
                | _, notes -> notes
              in
              (* only a verdict returned from here is committed; a verify
                 abort above must not leave a phantom vectorized count *)
              Some
                (verdict config ~block:region_id ~region:desc ~lanes
                   ~cost:cost.Cost.total ~notes:(aggregate_notes notes)
                   outcome))
      in
      match result with
      | Ok v -> Option.iter (conclude ~probe) v
      | Error failure ->
        (* rolled back: provenance recorded during the failed attempt
           refers to instructions that no longer exist *)
        provenance := saved_provenance;
        live_arena := !entry_arena;
        if failure.Transact.budget_exhausted then exhausted := true;
        let region, lanes =
          match !cur_seed with
          | Some seed -> (Seeds.describe seed, Array.length seed)
          | None -> (Fmt.str "(%s)" failure.Transact.pass, 0)
        in
        degrade ~probe ~block:region_id ~region ~lanes failure
    done;
    (* after the store seeds: the reduction-tree idiom (paper §2.2) *)
    if config.Config.reductions && not !exhausted then begin
      let on_skipped (c : Reduction.candidate) =
        let leaves = List.length c.Reduction.cand_leaves in
        let elt =
          match Types.scalar_of c.Reduction.cand_root.Instr.ty with
          | Some s -> s
          | None -> Types.F64
        in
        conclude ~probe
          (verdict config ~block:region_id
             ~region:(Reduction.describe c)
             ~lanes:0
             (Remark.Reduction_unmatched
                { leaves; width = Config.effective_max_lanes config elt }))
      in
      let snapshot = Transact.snapshot_block block in
      let saved_provenance = !provenance in
      let result =
        Transact.protect ~snapshot ~pass:(fun () -> "reduction") (fun () ->
            let rs =
              Probe.span probe "reduction" (fun () ->
                  Reduction.run ~config ~meter ~probe ~ids:graph_ids
                    ?record:record_opt ~on_skipped ?arena:!live_arena block)
            in
            if
              List.exists (fun r -> r.Reduction.vectorized) rs
              && Inject.corrupts inject
            then ignore (Inject.corrupt_block block);
            (* the block is only mutated when a reduction vectorized
               (rejected/unschedulable candidates emit nothing, and a
               half-rewrite raises out of this transaction), so an
               unvectorized outcome leaves the already-verified block
               byte-identical — skip the re-check *)
            if List.exists (fun r -> r.Reduction.vectorized) rs then
              ignore (verify_or_abort "reduction-verify" block);
            rs)
      in
      match result with
      | Ok rs ->
        List.iter
          (fun (r : Reduction.region) ->
            conclude ~traced:false ~probe
              (verdict config ~block:region_id ~region:r.Reduction.root_desc
                 ~lanes:r.Reduction.lanes ~cost:r.Reduction.cost
                 (if r.Reduction.vectorized then Remark.Vectorized
                  else if r.Reduction.not_schedulable then
                    Remark.Not_schedulable
                  else Remark.Unprofitable)))
          rs
      | Error failure ->
        provenance := saved_provenance;
        degrade ~probe ~block:region_id ~region:"(reduction)" ~lanes:0
          failure
    end
  in
  List.iter run_block blocks;
  (* whole-function cleanup: regions are vectorized one at a time, so
     duplicate gathers/extracts across regions only fall out here.  CSE and
     DCE are per-block folds, so the cleanup is transactional per block: a
     cleanup failure keeps that block's (already verified) vectorized form
     and degrades only the cleanup. *)
  let cleanup_block (block, probe, _) =
    let region_id = Block.label block in
    let snapshot = Transact.snapshot_block block in
    let cur_pass = ref "cse" in
    let result =
      Transact.protect ~snapshot ~pass:(fun () -> !cur_pass) (fun () ->
          Budget.deadline_tick deadline;
          Inject.maybe_fail inject Inject.Cse;
          let cse_removed =
            Probe.span probe "cse" (fun () -> Cse.run_block block)
          in
          cur_pass := "dce";
          Budget.deadline_tick deadline;
          Inject.maybe_fail inject Inject.Dce;
          let dce_removed =
            Probe.span probe "dce" (fun () -> Dce.run_block block)
          in
          (* both passes report how many instructions they removed; when
             neither touched the block it is still in its last verified
             state, so the re-check would be a no-op *)
          if cse_removed + dce_removed > 0 then
            ignore (verify_or_abort "cleanup-verify" block))
    in
    match result with
    | Ok () -> ()
    | Error failure ->
      degrade ~probe ~block:region_id ~region:"(cleanup)" ~lanes:0 failure
  in
  List.iter cleanup_block blocks;
  (match snap with
   | Some snap -> (
     match Legality.validate ~provenance:!provenance snap f with
     | ds -> diagnostics := List.rev_append (List.rev ds) !diagnostics
     | exception ((Out_of_memory | Sys.Break) as fatal) -> raise fatal
     | exception e ->
       diagnostics :=
         Diagnostic.warning ~rule:"legality:validate"
           (Fmt.str "legality validation crashed (%s)"
              (Printexc.to_string e))
         :: !diagnostics)
   | None -> ());
  let telemetry =
    Lslp_telemetry.Report.make ~func:f.Func.fname ~config:config.Config.name
      (List.map
         (fun (block, probe, _) -> (Block.label block, Probe.snapshot probe))
         blocks)
  in
  make_report ~config ~regions:(List.rev !regions) ~remarks:(List.rev !remarks)
    ~diagnostics:(List.rev !diagnostics) ~telemetry ~sink

let run ?metrics ?(config = Config.lslp) (f : Func.t) : report =
  (* Whole-function safety net: region failures are handled inside, so
     anything arriving here is a driver bug — restore the function to its
     scalar input form and report one degraded pseudo-region rather than
     letting the exception escape the compiler. *)
  let sink = if config.Config.trace then Some (Trace.create ()) else None in
  (* feed the observability registry on every path that produces a report;
     cancellation re-raises and is accounted by the pool instead *)
  let observed report =
    (match metrics with
     | Some m -> Lslp_telemetry.Pass_metrics.observe m report.telemetry
     | None -> ());
    report
  in
  let whole = Transact.snapshot_func f in
  match run_unprotected ~sink ~config f with
  | report -> observed report
  | exception ((Out_of_memory | Sys.Break) as fatal) -> raise fatal
  | exception (Budget.Deadline_expired _ as cancel) ->
    (* cooperative cancellation from the service watchdog: restore the
       scalar input (region transactions already rolled their own state
       back) and let the pool decide — retry or typed job failure *)
    Transact.restore whole;
    raise cancel
  | exception e ->
    Transact.restore whole;
    let failure = Transact.failure_of_exn ~pass:"pipeline" e in
    (* events recorded before the driver died survive into the report —
       exactly the breadcrumbs needed to debug the driver bug *)
    observed
      (make_report ~config
         ~regions:
           [ verdict config ~block:f.Func.fname
               ~region:(Fmt.str "(%s)" failure.Transact.pass)
               ~lanes:0 (outcome_of_failure failure) ]
         ~remarks:[] ~diagnostics:[]
         ~telemetry:
           (Lslp_telemetry.Report.empty ~func:f.Func.fname
              ~config:config.Config.name)
         ~sink)

(* Convenience: clone, run, return (report, transformed clone). *)
let run_cloned ?metrics ?(config = Config.lslp) (f : Func.t) :
    report * Func.t =
  let g = Func.clone f in
  let report = run ?metrics ~config g in
  (report, g)

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%s: %d region(s), %d vectorized%s, total cost %+d"
    r.config_name (List.length r.regions) r.vectorized_regions
    (if r.degraded_regions > 0 then
       Fmt.str ", %d degraded" r.degraded_regions
     else "")
    r.total_cost;
  List.iter
    (fun (reg : Remark.t) ->
      Fmt.pf ppf "@,  [%s] %s (VL=%d): cost %+d%s" reg.Remark.block
        reg.Remark.region reg.Remark.lanes
        (Option.value ~default:0 reg.Remark.cost)
        (match reg.Remark.outcome with
         | Remark.Vectorized -> " [vectorized]"
         | Remark.Not_schedulable -> " [not schedulable]"
         | Remark.Unprofitable | Remark.Reduction_unmatched _ ->
           " [kept scalar]"
         | Remark.Degraded { pass; error } ->
           Fmt.str " [degraded: %s: %s]" pass error
         | Remark.Budget_exhausted { pass; what } ->
           Fmt.str " [degraded: %s: %s [budget]]" pass what))
    r.regions;
  Fmt.pf ppf "@]"
