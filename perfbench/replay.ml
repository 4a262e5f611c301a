(* The traced replay: the compiler's pass and service loops re-run from
   the benchmark's own code through the same public calls, with a span
   around every call into a layer.

   [pipeline] follows [Lslp_core.Pipeline.run] step for step — per block
   the Arena -> Seeds -> Depgraph -> Graph_builder -> Cost -> Codegen ->
   Verifier loop inside a transaction per seed, then Reduction, then a
   per-block Cse/Dce cleanup — with the same probes, budget meters, node-id
   source and probe timers.  [service_job] follows [Service.batch]'s job:
   front lookup, frontend, print + normalize, content lookup, legality
   snapshot, pipeline, print + normalize, insert.  Replays support the
   configurations the benchmark compiles with (no remarks, no validation,
   no trace, no injected faults); the workloads' fidelity checks compare
   every replayed result with the real one's, byte for byte. *)

open Lslp_ir
module Config = Lslp_core.Config
module Seeds = Lslp_core.Seeds
module Graph_builder = Lslp_core.Graph_builder
module Cost = Lslp_core.Cost
module Codegen = Lslp_core.Codegen
module Reduction = Lslp_core.Reduction
module Depgraph = Lslp_analysis.Depgraph
module Budget = Lslp_robust.Budget
module Inject = Lslp_robust.Inject
module Transact = Lslp_robust.Transact
module Probe = Lslp_telemetry.Probe
module Telemetry = Lslp_telemetry.Report
module Service = Lslp_service.Service
module Cache = Lslp_service.Cache
module Int_table = Lslp_util.Int_table

type result = {
  vectorized : int;  (* regions vectorized, reductions included *)
  degraded : int;
  telemetry : Telemetry.t;
}

let frontend ctx ~unroll source =
  let ast =
    Span.with_ ctx Span.parse (fun () ->
        Lslp_frontend.Parser.parse_string source)
  in
  let f =
    Span.with_ ctx Span.lower (fun () -> Lslp_frontend.Lower.lower_kernel ast)
  in
  ignore
    (Span.with_ ctx Span.unroll (fun () ->
         Lslp_frontend.Unroll.run ~factor:unroll f));
  f

let pipeline ctx ?metrics ~(config : Config.t) (f : Func.t) : result =
  Span.with_ ctx Span.pipeline (fun () ->
      let inject = config.Config.inject in
      let deadline = config.Config.deadline in
      (* Pipeline.run's whole-function safety net *)
      let _whole = Transact.snapshot_func f in
      let graph_ids = Lslp_util.Id_gen.create ~first:1 () in
      let meters : (string, Budget.meter) Hashtbl.t = Hashtbl.create 4 in
      let probes : (string, Probe.t) Hashtbl.t = Hashtbl.create 4 in
      let probe_of label =
        match Hashtbl.find_opt probes label with
        | Some p -> p
        | None ->
          let p = Probe.create () in
          Hashtbl.replace probes label p;
          p
      in
      let meter_of label =
        match Hashtbl.find_opt meters label with
        | Some m -> m
        | None ->
          let m = Budget.meter config.Config.budget in
          Hashtbl.replace meters label m;
          m
      in
      let vectorized = ref 0 in
      let degraded = ref 0 in
      let degrade label =
        let c = Probe.counters (probe_of label) in
        c.Probe.regions_degraded <- c.Probe.regions_degraded + 1;
        incr degraded
      in
      let verify_or_abort pass =
        match Span.with_ ctx Span.verify (fun () -> Verifier.check_func f) with
        | [] -> ()
        | e :: _ ->
          raise
            (Transact.Check_failed
               { pass; error = Verifier.error_to_string e })
      in
      let run_block (block : Block.t) =
        let label = Block.label block in
        let meter = meter_of label in
        let probe = probe_of label in
        let pc = Probe.counters probe in
        let exhausted = ref false in
        let continue_ = ref true in
        let consumed = Int_table.create 32 in
        let live_arena = ref None in
        while !continue_ && not !exhausted do
          continue_ := false;
          let snapshot = Transact.snapshot_block block in
          let cur_pass = ref "seed-collect" in
          let result =
            Transact.protect ~snapshot ~pass:(fun () -> !cur_pass) (fun () ->
                Budget.spend_step meter;
                let arena =
                  Span.with_ ctx Span.arena (fun () -> Arena.of_block block)
                in
                live_arena := Some arena;
                let seeds =
                  Probe.span probe "seed-collect" (fun () ->
                      Span.with_ ctx Span.seeds (fun () ->
                          Seeds.collect ~arena ~probe config block))
                in
                let fresh =
                  List.filter
                    (fun (s : Seeds.seed) ->
                      Array.for_all
                        (fun (i : Instr.t) ->
                          (not (Int_table.mem consumed i.id))
                          && Block.mem block i)
                        s)
                    seeds
                in
                match fresh with
                | [] -> ()
                | seed :: _ ->
                  Array.iter
                    (fun (i : Instr.t) -> Int_table.set consumed i.id 1)
                    seed;
                  continue_ := true;
                  pc.Probe.seeds_tried <- pc.Probe.seeds_tried + 1;
                  let _desc = Seeds.describe seed in
                  cur_pass := "graph-build";
                  Budget.deadline_tick deadline;
                  Inject.maybe_fail inject Inject.Graph_build;
                  let graph, deps =
                    Probe.span probe "graph-build" (fun () ->
                        let deps =
                          Span.with_ ctx Span.depgraph (fun () ->
                              Depgraph.build_arena arena)
                        in
                        let g, _root =
                          Span.with_ ctx Span.graph_build (fun () ->
                              Graph_builder.build ~meter ~probe ~ids:graph_ids
                                ~deps config block seed)
                        in
                        (g, deps))
                  in
                  cur_pass := "cost";
                  let cost =
                    Probe.span probe "cost" (fun () ->
                        Span.with_ ctx Span.cost (fun () ->
                            Cost.evaluate ~uses:(Use_info.of_arena arena)
                              config graph block))
                  in
                  cur_pass := "codegen";
                  if Cost.profitable config cost then begin
                    Budget.deadline_tick deadline;
                    Inject.maybe_fail inject Inject.Codegen;
                    match
                      Probe.span probe "codegen" (fun () ->
                          Span.with_ ctx Span.codegen (fun () ->
                              Codegen.run ~probe ~deps graph block))
                    with
                    | Codegen.Vectorized ->
                      live_arena := None;
                      cur_pass := "verify";
                      Budget.deadline_tick deadline;
                      Inject.maybe_fail inject Inject.Verify;
                      verify_or_abort "verify";
                      pc.Probe.regions_vectorized <-
                        pc.Probe.regions_vectorized + 1;
                      incr vectorized
                    | Codegen.Not_schedulable -> ()
                    | Codegen.Failed msg ->
                      raise
                        (Transact.Check_failed
                           { pass = "codegen"; error = msg })
                  end)
          in
          match result with
          | Ok () -> ()
          | Error failure ->
            if failure.Transact.budget_exhausted then exhausted := true;
            degrade label
        done;
        if config.Config.reductions && not !exhausted then begin
          let snapshot = Transact.snapshot_block block in
          let result =
            Transact.protect ~snapshot ~pass:(fun () -> "reduction") (fun () ->
                let rs =
                  Probe.span probe "reduction" (fun () ->
                      Span.with_ ctx Span.reduction (fun () ->
                          Reduction.run ~config ~meter ~probe ~ids:graph_ids
                            ~on_skipped:ignore ?arena:!live_arena block))
                in
                if List.exists (fun r -> r.Reduction.vectorized) rs then
                  verify_or_abort "reduction-verify";
                rs)
          in
          match result with
          | Ok rs ->
            List.iter
              (fun (r : Reduction.region) ->
                if r.Reduction.vectorized then begin
                  pc.Probe.regions_vectorized <- pc.Probe.regions_vectorized + 1;
                  incr vectorized
                end)
              rs
          | Error _ -> degrade label
        end
      in
      List.iter run_block (Func.blocks f);
      let cleanup_block (block : Block.t) =
        let label = Block.label block in
        let probe = probe_of label in
        let snapshot = Transact.snapshot_block block in
        let cur_pass = ref "cse" in
        let result =
          Transact.protect ~snapshot ~pass:(fun () -> !cur_pass) (fun () ->
              Budget.deadline_tick deadline;
              Inject.maybe_fail inject Inject.Cse;
              let cse_removed =
                Probe.span probe "cse" (fun () ->
                    Span.with_ ctx Span.cse (fun () -> Cse.run_block block))
              in
              cur_pass := "dce";
              Budget.deadline_tick deadline;
              Inject.maybe_fail inject Inject.Dce;
              let dce_removed =
                Probe.span probe "dce" (fun () ->
                    Span.with_ ctx Span.dce (fun () -> Dce.run_block block))
              in
              if cse_removed + dce_removed > 0 then
                verify_or_abort "cleanup-verify")
        in
        match result with Ok () -> () | Error _ -> degrade label
      in
      List.iter cleanup_block (Func.blocks f);
      let telemetry =
        Telemetry.make ~func:f.Func.fname ~config:config.Config.name
          (List.filter_map
             (fun block ->
               let label = Block.label block in
               Option.map
                 (fun p -> (label, Probe.snapshot p))
                 (Hashtbl.find_opt probes label))
             (Func.blocks f))
      in
      Option.iter
        (fun m -> Lslp_telemetry.Pass_metrics.observe m telemetry)
        metrics;
      { vectorized = !vectorized; degraded = !degraded; telemetry })

(* The printed, alpha-renamed form of a function, as the service keys and
   returns it. *)
let printed ctx func =
  let text =
    Span.with_ ctx Span.print (fun () ->
        Fmt.str "%a" Lslp_ir.Printer.pp_func func)
  in
  Span.with_ ctx Span.normalize (fun () -> Lslp_util.Normalize.ids text)

let counters_of (t : Telemetry.t) =
  let c = Telemetry.total_counters t in
  List.map (fun (name, get) -> (name, get c)) Probe.counter_fields

(* One service job on [cache], the way [Service.batch] compiles it with the
   cache on and no fault armed. *)
let service_job ctx ~cache ~pass_metrics ~(config : Config.t) ~fingerprint
    (job : Service.job) : Service.success =
  let of_cached (p : Cache.cached) =
    {
      Service.label = job.Service.label;
      ir = p.Cache.ir;
      remarks = p.Cache.remarks;
      counters = p.Cache.counters;
      vectorized = p.Cache.vectorized;
      degraded = 0;
      from_cache = true;
    }
  in
  let label = job.Service.label in
  let source_key =
    Cache.source_key ~source:job.Service.source ~unroll:job.Service.unroll
      ~fingerprint
  in
  match
    Span.with_ ctx Span.lookup (fun () ->
        Cache.find_by_source cache ~label ~source_key ~poison:false)
  with
  | Some p -> of_cached p
  | None -> (
    let func = frontend ctx ~unroll:job.Service.unroll job.Service.source in
    let input_norm = printed ctx func in
    match
      Span.with_ ctx Span.lookup (fun () ->
          Cache.find_by_ir cache ~label ~source_key ~input_norm ~fingerprint
            ~poison:false)
    with
    | Some p -> of_cached p
    | None ->
      let snap =
        Span.with_ ctx Span.snapshot (fun () ->
            Lslp_check.Legality.snapshot func)
      in
      let r = pipeline ctx ~metrics:pass_metrics ~config func in
      let ir = printed ctx func in
      let counters = counters_of r.telemetry in
      if r.degraded = 0 then
        Span.with_ ctx Span.insert (fun () ->
            Cache.insert cache ~label ~source_key ~input_norm ~fingerprint
              ~snap ~func
              { Cache.ir; remarks = []; counters; vectorized = r.vectorized });
      {
        Service.label;
        ir;
        remarks = [];
        counters;
        vectorized = r.vectorized;
        degraded = r.degraded;
        from_cache = false;
      })
