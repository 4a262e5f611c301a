(* lslpc: the kernel-language compiler driver.

   Subcommands:
     compile  parse a kernel, run a vectorizer configuration, dump IR /
              graphs / costs; --stats/--stats-json print its telemetry
              counters, the one per-kernel counter view
     run      compile and execute scalar vs vectorized in the simulator,
              reporting cycles, speedup and an equivalence check
     analyze  explain the vectorizer's decisions: one remark per region
              considered, plus the output of the legality validator (the
              one legality view)
     trace    record the decision trace and export it as a decision log
              or Graphviz DOT
     stats    run the whole kernel catalog and tabulate the telemetry
              counters (score evaluations, cache hits, graph nodes, ...)
              and the per-pass step histograms
     kernels  list the built-in kernel catalog
     show     print a catalog kernel's source and IR
     fuzz     differential fuzzing: random kernels vs the scalar oracle
              (--config cache-diff checks the memoized scorer instead;
              --jobs N runs the same cases on N pool domains)
     batch    compile the catalog on the fault-isolated Domain-pool
              service: per-job deadlines, retries with backoff,
              backpressure and a verified result cache

   Example:
     lslpc compile --config lslp --dump-ir examples/kernels/saxpy2.k
     lslpc run --kernel 453.boy-surface --config slp
     lslpc analyze --kernel motivation-multi --config lslp
     lslpc compile --kernel motivation-multi -q --stats
     lslpc compile --kernel 453.boy-surface --inject codegen:1.0:7
     lslpc trace examples/kernels/loop_saxpy.k
     lslpc trace --kernel motivation-multi --trace-format dot | dot -Tsvg
     lslpc stats --config lslp
     lslpc fuzz --cases 200 --config cache-diff
*)

open Cmdliner

let config_of_string = function
  | "slp-nr" -> Ok Lslp_core.Config.slp_nr
  | "slp" -> Ok Lslp_core.Config.slp
  | "lslp" -> Ok Lslp_core.Config.lslp
  | s -> (
    match String.index_opt s ':' with
    | Some k -> (
      let name = String.sub s 0 k in
      let arg = String.sub s (k + 1) (String.length s - k - 1) in
      match (name, int_of_string_opt arg) with
      | "lslp-la", Some d -> Ok (Lslp_core.Config.lslp_la d)
      | "lslp-multi", Some m -> Ok (Lslp_core.Config.lslp_multi m)
      | _ -> Error (Fmt.str "unknown configuration %s" s))
    | None -> Error (Fmt.str "unknown configuration %s" s))

let config_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (config_of_string s) in
  let print ppf (c : Lslp_core.Config.t) = Fmt.string ppf c.name in
  Arg.conv (parse, print)

let config_arg =
  let doc =
    "Vectorizer configuration: slp-nr, slp, lslp, lslp-la:N (look-ahead \
     depth N) or lslp-multi:N (multi-node size N)."
  in
  Arg.(value & opt config_conv Lslp_core.Config.lslp
       & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)

let inject_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Lslp_robust.Inject.parse s)
  in
  Arg.conv (parse, Lslp_robust.Inject.pp)

let inject_arg =
  let doc =
    "Arm deterministic fault injection: PASS[:RATE[:SEED]], where PASS is \
     graph-build, reorder, codegen, reduction, cse, dce, verify, corrupt \
     or all.  Fired faults roll the region back to scalar and show up as \
     degraded regions in the report."
  in
  Arg.(value & opt (some inject_conv) None
       & info [ "inject" ] ~docv:"SPEC" ~doc)

let no_score_cache_arg =
  Arg.(value & flag
       & info [ "no-score-cache" ]
           ~doc:"Disable the memoized look-ahead scorer (same results, \
                 more score evaluations).")

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print the telemetry counter table (deterministic).")

(* An int whose smallest valid value is [lo]: cmdliner rejects anything
   below it as a usage error (exit 124) instead of letting a negative
   count reach the pool, the fuzzer or the unroller. *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo ->
      Error (`Msg (Fmt.str "%d is below the minimum %d" n lo))
    | r -> r
  in
  Arg.conv (parse, Fmt.int)

(* ---- output ------------------------------------------------------ *)

let write_out path contents =
  match path with
  | "-" ->
    print_string contents;
    flush stdout
  | path ->
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc

(* Region formation happens here, in the driver, exactly once: Lower and
   Catalog.compile stay pure so nothing double-unrolls. *)
let load_kernel ~unroll file kernel_key =
  let f =
    match (file, kernel_key) with
    | Some path, None ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let src = really_input_string ic n in
      close_in ic;
      Lslp_frontend.Lower.compile_string src
    | None, Some key -> Lslp_kernels.Catalog.compile_key key
    | Some _, Some _ -> failwith "give either a file or --kernel, not both"
    | None, None -> failwith "give a kernel file or --kernel KEY"
  in
  ignore (Lslp_frontend.Unroll.run ~factor:unroll f);
  f

let unroll_arg =
  let doc =
    "Unroll factor for counted loops (region formation); 0 or 1 disables."
  in
  Arg.(value & opt (int_at_least 0) 4 & info [ "unroll" ] ~docv:"N" ~doc)

let file_arg =
  Arg.(value & pos 0 (some non_dir_file) None
       & info [] ~docv:"FILE" ~doc:"Kernel-language source file.")

let kernel_arg =
  let doc = "Use a built-in catalog kernel (see the kernels subcommand)." in
  Arg.(value & opt (some string) None & info [ "k"; "kernel" ] ~docv:"KEY" ~doc)

(* --config with --no-score-cache applied: stats and, through
   [kernel_term], every subcommand that compiles one kernel. *)
let config_term =
  let make config no_cache =
    if no_cache then Lslp_core.Config.with_score_cache false config
    else config
  in
  Term.(const make $ config_arg $ no_score_cache_arg)

(* What compile, run, analyze and trace share: [(config, unroll, load)],
   the configuration with --inject applied too, --unroll, and [load n],
   which reads FILE or --kernel unrolled by [n] (call it inside
   [handle_errors]). *)
let kernel_term =
  let make file kernel config unroll inject =
    let config =
      match inject with
      | Some i -> Lslp_core.Config.with_inject i config
      | None -> config
    in
    (config, unroll, fun unroll -> load_kernel ~unroll file kernel)
  in
  Term.(const make $ file_arg $ kernel_arg $ config_term $ unroll_arg
        $ inject_arg)

let handle_errors f =
  try f () with
  | Lslp_frontend.Lexer.Error (msg, pos)
  | Lslp_frontend.Parser.Error (msg, pos)
  | Lslp_frontend.Lower.Error (msg, pos) ->
    Fmt.epr "error at %a: %s@." Lslp_frontend.Token.pp_pos pos msg;
    exit 1
  | Failure msg | Invalid_argument msg | Sys_error msg ->
    Fmt.epr "error: %s@." msg;
    exit 1

(* ---- compile ---------------------------------------------------- *)

let compile_cmd =
  let run (config, unroll, load) dump_ir dump_graph quiet stats stats_json =
    handle_errors @@ fun () ->
    let f = load unroll in
    if dump_ir then
      Fmt.pr "=== scalar IR ===@.%a@.@." Lslp_ir.Printer.pp_func f;
    if dump_graph then
      List.iter
        (fun block ->
          let seeds = Lslp_core.Seeds.collect config block in
          List.iteri
            (fun k seed ->
              let graph, _ = Lslp_core.Graph_builder.build config block seed in
              let cost = Lslp_core.Cost.evaluate config graph block in
              Fmt.pr "=== %s graph for seed %d of [%s] ===@.%a@.%a@.@."
                config.name k
                (Lslp_ir.Block.label block)
                Lslp_core.Graph.pp graph Lslp_core.Cost.pp_summary cost)
            seeds)
        (Lslp_ir.Func.blocks f);
    let report, g = Lslp_core.Pipeline.run_cloned ~config f in
    if not quiet then Fmt.pr "%a@.@." Lslp_core.Pipeline.pp_report report;
    (* counters and steps are deterministic per (input, config), so they
       go to stdout and golden tests pin them *)
    let t = report.Lslp_core.Pipeline.telemetry in
    if stats then Fmt.pr "%a" Lslp_telemetry.Report.pp_counters t;
    if stats_json then
      Fmt.pr "%s@." (Lslp_util.Json.to_string (Lslp_telemetry.Report.json t));
    if dump_ir then
      Fmt.pr "=== %s IR ===@.%a@." config.name Lslp_ir.Printer.pp_func g;
    match Lslp_ir.Verifier.check_func g with
    | [] -> ()
    | errors ->
      List.iter
        (fun e -> Fmt.epr "verifier: %a@." Lslp_ir.Verifier.pp_error e)
        errors;
      exit 1
  in
  let dump_ir =
    Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print IR before and after.")
  in
  let dump_graph =
    Arg.(value & flag
         & info [ "dump-graph" ] ~doc:"Print the SLP graph and node costs.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No report.") in
  let stats_json =
    Arg.(value & flag
         & info [ "stats-json" ]
             ~doc:"Emit the telemetry report (counters and per-pass step \
                   counts) as one JSON document.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Vectorize a kernel and report what happened")
    Term.(const run $ kernel_term $ dump_ir $ dump_graph $ quiet $ stats_arg
          $ stats_json)

(* ---- run --------------------------------------------------------- *)

let run_cmd =
  let run (config, unroll, load) seed =
    handle_errors @@ fun () ->
    (* the reference is the kernel as written (loops intact), so the oracle
       checks region formation and vectorization together *)
    let reference = load 0 in
    let f = load unroll in
    let report, g = Lslp_core.Pipeline.run_cloned ~config f in
    let outcome =
      Lslp_interp.Oracle.compare_runs ~seed ~reference ~candidate:g ()
    in
    Fmt.pr "%a@.@." Lslp_core.Pipeline.pp_report report;
    Fmt.pr "scalar cycles:     %d@." outcome.reference_cycles;
    Fmt.pr "vectorized cycles: %d@." outcome.candidate_cycles;
    Fmt.pr "speedup:           %.3fx@."
      (float_of_int outcome.reference_cycles
      /. float_of_int (max 1 outcome.candidate_cycles));
    match outcome.mismatches with
    | [] -> Fmt.pr "equivalence:       OK@."
    | ms ->
      Fmt.pr "equivalence:       FAILED (%d mismatches)@." (List.length ms);
      List.iter (fun m -> Fmt.pr "  %a@." Lslp_interp.Memory.pp_mismatch m) ms;
      exit 1
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N" ~doc:"Random seed for input data.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Vectorize a kernel, simulate scalar vs vector, compare")
    Term.(const run $ kernel_term $ seed)

(* ---- analyze ------------------------------------------------------ *)

let analyze_cmd =
  let run (config, unroll, load) json =
    handle_errors @@ fun () ->
    let config =
      Lslp_core.Config.(config |> with_remarks true |> with_validate true)
    in
    let f = load unroll in
    let report, _g = Lslp_core.Pipeline.run_cloned ~config f in
    let remarks = report.Lslp_core.Pipeline.remarks in
    let diags = report.Lslp_core.Pipeline.diagnostics in
    if json then
      Fmt.pr "%s@."
        (Lslp_check.Remark.report_to_json ~config_name:config.name
           ~func_name:f.Lslp_ir.Func.fname ~diagnostics:diags remarks)
    else begin
      Fmt.pr "%s: %s, %d region(s) considered@." config.name
        f.Lslp_ir.Func.fname (List.length remarks);
      List.iter (fun r -> Fmt.pr "%a@." Lslp_check.Remark.pp r) remarks;
      List.iter (fun d -> Fmt.pr "%a@." Lslp_check.Diagnostic.pp d) diags;
      Fmt.pr "legality: %s@." (Lslp_check.Diagnostic.summary diags)
    end;
    if Lslp_check.Diagnostic.errors diags <> [] then exit 1
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the report as a JSON document.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Explain the vectorizer's decisions: one remark per region \
          considered, with the legality validator's verdict")
    Term.(const run $ kernel_term $ json)

(* ---- trace -------------------------------------------------------- *)

let trace_cmd =
  let run (config, unroll, load) format out all =
    handle_errors @@ fun () ->
    let config = Lslp_core.Config.with_trace true config in
    if all then
      (* the whole catalog through both exporters — the CI smoke test *)
      List.iter
        (fun (k : Lslp_kernels.Catalog.kernel) ->
          let f = Lslp_kernels.Catalog.compile k in
          ignore (Lslp_frontend.Unroll.run ~factor:unroll f);
          let report, _ = Lslp_core.Pipeline.run_cloned ~config f in
          let events = report.Lslp_core.Pipeline.trace_events in
          (* a digest pins each whole export, not just its length,
             without printing every event into the golden *)
          let digest export =
            String.sub (Digest.to_hex (Digest.string (export events))) 0 16
          in
          Fmt.pr "%-26s %4d event(s): dot %s, log %s@." k.key
            (List.length events)
            (digest Lslp_trace.Trace.to_dot)
            (digest Lslp_trace.Trace.to_log))
        Lslp_kernels.Catalog.all
    else begin
      let f = load unroll in
      let report, _ = Lslp_core.Pipeline.run_cloned ~config f in
      let export =
        match format with
        | `Dot -> Lslp_trace.Trace.to_dot
        | `Log -> Lslp_trace.Trace.to_log
      in
      write_out (Option.value ~default:"-" out)
        (export report.Lslp_core.Pipeline.trace_events)
    end
  in
  let format =
    let doc =
      "Trace export format: $(b,log) (human-readable decision log) or \
       $(b,dot) (Graphviz SLP graphs)."
    in
    Arg.(value & opt (enum [ ("log", `Log); ("dot", `Dot) ]) `Log
         & info [ "trace-format" ] ~docv:"FORMAT" ~doc)
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write the trace to $(docv) instead of stdout.")
  in
  let all =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Trace every catalog kernel through both exporters and \
                   print one summary line each, ending in digests of the \
                   DOT export and the decision log; ignores \
                   FILE/--kernel/--out/--trace-format.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record the vectorizer's decision trace for a kernel and export \
          it as a decision log or Graphviz DOT")
    Term.(const run $ kernel_term $ format $ out $ all)

(* ---- stats -------------------------------------------------------- *)

let stats_cmd =
  let run config unroll =
    handle_errors @@ fun () ->
    let registry = Lslp_obs.Registry.create () in
    let pm = Lslp_telemetry.Pass_metrics.create registry in
    (* one total row per kernel *)
    Fmt.pr "=== catalog telemetry: %s ===@." config.Lslp_core.Config.name;
    Fmt.pr "%-26s" "kernel";
    List.iter
      (fun (name, _) -> Fmt.pr " %8s" name)
      Lslp_telemetry.Probe.counter_fields;
    Fmt.pr "@.";
    List.iter
      (fun (k : Lslp_kernels.Catalog.kernel) ->
        let f = Lslp_kernels.Catalog.compile k in
        ignore (Lslp_frontend.Unroll.run ~factor:unroll f);
        let report = Lslp_core.Pipeline.run ~metrics:pm ~config f in
        let c =
          Lslp_telemetry.Report.total_counters
            report.Lslp_core.Pipeline.telemetry
        in
        Fmt.pr "%-26s" k.key;
        List.iter
          (fun (_, get) -> Fmt.pr " %8d" (get c))
          Lslp_telemetry.Probe.counter_fields;
        Fmt.pr "@.")
      Lslp_kernels.Catalog.all;
    (* step-count distributions over the catalog; deterministic, so they
       print to stdout with the counter table *)
    Fmt.pr "@.=== catalog step histograms: %s ===@.%a@."
      config.Lslp_core.Config.name Lslp_obs.Export.pp_table
      (Lslp_obs.Registry.snapshot registry)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Vectorize the whole kernel catalog and tabulate the telemetry \
          counters (seeds, score evaluations, cache hits, graph nodes, \
          regions) and the per-pass step histograms")
    Term.(const run $ config_term $ unroll_arg)

(* ---- fuzz --------------------------------------------------------- *)

let fuzz_cmd =
  let run cases seed config inject jobs json =
    handle_errors @@ fun () ->
    let arm =
      match config with
      | None -> Lslp_fuzz.Fuzz.Classic None
      | Some "cond" -> Lslp_fuzz.Fuzz.Cond
      | Some "cache-diff" -> Lslp_fuzz.Fuzz.Cache_diff
      | Some s -> (
        match config_of_string s with
        | Ok c -> Lslp_fuzz.Fuzz.Classic (Some c)
        | Error e -> failwith e)
    in
    let stats, mismatches =
      if jobs > 1 then begin
        (* sharded on the service pool, then replayed sequentially and
           compared case by case: sharding must be invisible *)
        let pool =
          { Lslp_service.Pool.default_config with domains = jobs;
            queue_cap = jobs * 4 }
        in
        let outcomes =
          Lslp_service.Shard.run ~arm ?inject_spec:inject ~pool ~cases ~seed ()
        in
        ( Lslp_fuzz.Fuzz.stats outcomes,
          Lslp_service.Shard.check_against_sequential ~arm ?inject_spec:inject
            ~seed outcomes )
      end
      else (Lslp_fuzz.Fuzz.run ~cases ~seed ~arm ?inject_spec:inject (), [])
    in
    (* summary on stdout is stable per seed; the RNG-dependent counters go
       to stderr so cram tests can pin the former *)
    if json then Fmt.pr "%s@." (Lslp_fuzz.Fuzz.to_json stats)
    else Fmt.pr "%a@." Lslp_fuzz.Fuzz.pp_summary stats;
    Fmt.epr "%a@." Lslp_fuzz.Fuzz.pp_detail stats;
    if jobs > 1 then begin
      match mismatches with
      | [] -> Fmt.pr "sharded determinism (%d domain(s)): OK@." jobs
      | ms ->
        Fmt.epr "sharded determinism: FAILED: case(s) %a differ from the \
                 sequential run@."
          Fmt.(list ~sep:comma int) ms
    end;
    if not (Lslp_fuzz.Fuzz.ok stats && mismatches = []) then exit 1
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the run's summary (cases, failures, counters) as a \
                   JSON document instead of the text summary.")
  in
  let cases =
    Arg.(value & opt (int_at_least 0) 500
         & info [ "cases" ] ~docv:"N" ~doc:"How many random programs to try.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"Root seed; every case is reproducible from it.")
  in
  let config =
    let doc =
      "Pin one vectorizer configuration instead of drawing from the pool, \
       $(b,cache-diff) to differentially test the memoized look-ahead \
       scorer (cache on vs off must agree byte-for-byte), or $(b,cond) to \
       fuzz only branching masked-IR programs (guarded stores, selects, \
       masked loads) against the scalar oracle."
    in
    Arg.(value & opt (some string) None
         & info [ "c"; "config" ] ~docv:"CONFIG" ~doc)
  in
  let jobs =
    Arg.(value & opt (int_at_least 1) 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Shard the cases across N pool domains; the run is then \
                   replayed sequentially and compared case by case \
                   (sharding must be observationally invisible).  Every \
                   case is the same with any N.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random well-typed kernels through the \
          pipeline under random configurations (and injected faults), \
          checked against the scalar oracle")
    Term.(const run $ cases $ seed $ config $ inject_arg $ jobs $ json)

(* ---- batch -------------------------------------------------------- *)

(* "SPEC[@JOB]": an injection spec optionally targeted at one global job
   index.  Targeted specs arm only their job; an untargeted spec arms
   every job.  The first matching spec wins. *)
let parse_targeted_inject s =
  let split_target s =
    match String.rindex_opt s '@' with
    | Some k -> (
      let target = String.sub s (k + 1) (String.length s - k - 1) in
      match int_of_string_opt target with
      | Some job -> (String.sub s 0 k, Some job)
      | None -> (s, None))
    | None -> (s, None)
  in
  let spec, target = split_target s in
  match Lslp_robust.Inject.parse spec with
  | Ok i -> Ok (i, target)
  | Error e -> Error (`Msg e)

let targeted_inject_conv =
  let print ppf (i, target) =
    Fmt.pf ppf "%a%a" Lslp_robust.Inject.pp i
      Fmt.(option (fun ppf j -> Fmt.pf ppf "@@%d" j))
      target
  in
  Arg.conv (parse_targeted_inject, print)

let service_inject_args =
  let doc =
    "Arm deterministic fault injection, repeatable.  \
     PASS[:RATE[:SEED]][@JOB], where PASS additionally accepts the \
     service boundaries worker-raise, worker-hang, cache-poison, \
     queue-full and the set name $(b,service); @JOB targets one global \
     job index (round * kernels + position), otherwise every job is \
     armed."
  in
  Arg.(value & opt_all targeted_inject_conv []
       & info [ "inject" ] ~docv:"SPEC" ~doc)

let inject_for_of specs gidx =
  let rec pick = function
    | [] -> None
    | (i, Some j) :: _ when j = gidx -> Some i
    | (i, None) :: _ -> Some i
    | _ :: rest -> pick rest
  in
  (* targeted specs take precedence over a catch-all *)
  let targeted = List.filter (fun (_, t) -> t <> None) specs in
  match pick targeted with Some i -> Some i | None -> pick specs

let pool_config_of ~jobs ~queue_cap ~retries ~backoff ~deadline_steps =
  {
    Lslp_service.Pool.default_config with
    domains = jobs;
    queue_cap;
    retries;
    backoff;
    deadline_steps;
  }

let batch_cmd =
  let run config unroll jobs queue_cap deadline_steps retries backoff cache
      repeat injects expect stats_flag metrics_out flight_out verbose =
    handle_errors @@ fun () ->
    let inject_for = inject_for_of injects in
    let pool =
      pool_config_of ~jobs ~queue_cap ~retries ~backoff ~deadline_steps
    in
    let svc =
      Lslp_service.Service.create ~cache ~inject_for ~pool config
    in
    let kernels = Lslp_kernels.Catalog.all in
    let job_array =
      Array.of_list
        (List.map
           (fun (k : Lslp_kernels.Catalog.kernel) ->
             { Lslp_service.Service.label = k.key; source = k.source; unroll })
           kernels)
    in
    let n = Array.length job_array in
    let rounds =
      List.init repeat (fun round ->
          Lslp_service.Service.batch ~index_base:(round * n) svc job_array)
    in
    let outcomes = Array.concat rounds in
    let ok = ref 0 and cached = ref 0 and failed = ref 0 in
    Array.iteri
      (fun gidx outcome ->
        let key = (List.nth kernels (gidx mod n)).Lslp_kernels.Catalog.key in
        match outcome with
        | Lslp_service.Pool.Done (s : Lslp_service.Service.success) ->
          incr ok;
          if s.from_cache then incr cached;
          if verbose then
            Fmt.epr "job %d %s: ok%s, %d region(s) vectorized@." gidx key
              (if s.from_cache then " (cached)" else "")
              s.vectorized
        | Lslp_service.Pool.Degraded_to_failure { attempts; failure } ->
          incr failed;
          Fmt.pr "job %d %s: degraded after %d attempt(s): %a@." gidx key
            attempts Lslp_service.Pool.pp_failure failure)
      outcomes;
    Fmt.pr "batch: %d round(s) x %d kernel(s) on %d domain(s): %d ok (%d \
            from cache), %d degraded@."
      repeat n jobs !ok !cached !failed;
    if stats_flag then begin
      Fmt.pr "%a@." Lslp_telemetry.Pool_stats.pp
        (Lslp_service.Service.stats svc);
      Fmt.pr "%a@." Lslp_obs.Export.pp_table
        (Lslp_obs.Registry.snapshot (Lslp_service.Service.registry svc))
    end;
    Option.iter
      (fun path ->
        write_out path
          (Lslp_obs.Export.prometheus
             (Lslp_obs.Registry.snapshot (Lslp_service.Service.registry svc))))
      metrics_out;
    Option.iter
      (fun path ->
        write_out path
          (Lslp_obs.Flight.to_jsonl (Lslp_service.Service.flight svc)))
      flight_out;
    match expect with
    | None -> if !failed > 0 && injects = [] then exit 1
    | Some want ->
      let got = Lslp_service.Service.degradations svc outcomes in
      if got <> want then begin
        Fmt.epr
          "batch: expected %d degradation(s) (failures + cache evictions), \
           got %d@."
          want got;
        exit 1
      end
      else Fmt.pr "degradations: %d (as expected)@." got
  in
  let jobs =
    Arg.(value & opt (int_at_least 1) 4
         & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains in the pool.")
  in
  let queue_cap =
    Arg.(value & opt (int_at_least 1) 64
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Ready-queue bound; admission blocks while full \
                   (backpressure).")
  in
  let deadline_steps =
    Arg.(value & opt (some (int_at_least 1)) None
         & info [ "deadline-steps" ] ~docv:"K"
             ~doc:"Cooperative per-job deadline: cancel a compile after K \
                   pass-boundary ticks.  Off by default.")
  in
  let retries =
    Arg.(value & opt (int_at_least 0) 2
         & info [ "retries" ] ~docv:"R"
             ~doc:"Re-queue a crashed or timed-out job up to R times \
                   (deterministic exponential backoff) before recording a \
                   typed failure.")
  in
  let backoff =
    Arg.(value & opt (int_at_least 1) 2
         & info [ "backoff" ] ~docv:"T"
             ~doc:"Base retry delay in virtual scheduling ticks; doubles \
                   per attempt.")
  in
  let cache =
    Arg.(value & opt (enum [ ("on", true); ("off", false) ]) true
         & info [ "cache" ] ~docv:"on|off"
             ~doc:"Content-addressed result cache; every result is checked \
                   by the legality validator before it is stored, and every \
                   hit's payload is checked against its digest before reuse.")
  in
  let repeat =
    Arg.(value & opt (int_at_least 1) 1
         & info [ "repeat" ] ~docv:"N"
             ~doc:"Submit the catalog N times as sequential rounds sharing \
                   the cache — round 2+ exercises the warm path.")
  in
  let expect =
    Arg.(value & opt (some int) None
         & info [ "expect-degradations" ] ~docv:"N"
             ~doc:"Exit non-zero unless failures + cache evictions equal \
                   exactly N (the fault-survival smoke gate).")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Dump the metrics registry (counters, gauges, \
                   histograms) to $(docv) ($(b,-) for stdout) after the \
                   batch.  Virtual ticks and step counts only — with \
                   --jobs 1 the dump is byte-reproducible.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ]
             ~doc:"Print one line per completed job on stderr.")
  in
  let flight_out =
    Arg.(value & opt (some string) None
         & info [ "flight-out" ] ~docv:"FILE"
             ~doc:"Dump the flight recorder (per-job lifecycle events \
                   with attempt seeds and cache outcomes) as JSONL to \
                   $(docv) ($(b,-) for stdout).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Compile the kernel catalog as a batch on the fault-isolated \
          Domain-pool service: deadlines, retries, backpressure and a \
          verified result cache")
    Term.(const run $ config_arg $ unroll_arg $ jobs $ queue_cap
          $ deadline_steps $ retries $ backoff $ cache $ repeat
          $ service_inject_args $ expect $ stats_arg $ metrics_out
          $ flight_out $ verbose)

(* ---- kernels ------------------------------------------------------ *)

let kernels_cmd =
  let run () =
    List.iter
      (fun (k : Lslp_kernels.Catalog.kernel) ->
        Fmt.pr "%-26s %-12s %s@." k.key k.benchmark k.origin)
      Lslp_kernels.Catalog.all
  in
  Cmd.v
    (Cmd.info "kernels" ~doc:"List the built-in kernel catalog")
    Term.(const run $ const ())

(* ---- show --------------------------------------------------------- *)

let show_cmd =
  let run key =
    handle_errors @@ fun () ->
    let k = Lslp_kernels.Catalog.find key in
    Fmt.pr "// %s (%s, %s)%s@."
      k.key k.benchmark k.origin k.source;
    let f = Lslp_kernels.Catalog.compile k in
    Fmt.pr "@.%a@." Lslp_ir.Printer.pp_func f
  in
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a catalog kernel's source and scalar IR")
    Term.(const run $ key)

let () =
  Fmt_tty.setup_std_outputs ();
  let info =
    Cmd.info "lslpc" ~version:"1.0.0"
      ~doc:"Look-ahead SLP vectorizing compiler for the kernel language"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ compile_cmd; run_cmd; analyze_cmd; trace_cmd; stats_cmd;
            fuzz_cmd; batch_cmd; kernels_cmd; show_cmd ]))
