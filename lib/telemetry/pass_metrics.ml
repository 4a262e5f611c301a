(* Pipeline-side metrics: the probe feeds the registry.

   One {!t} per service (or per CLI invocation); {!observe} folds a
   finished {!Report.t} into it — the nine deterministic pipeline
   counters, a per-run total-step histogram and one step histogram per
   pass (the 7 instrumented boundaries).

   "Steps" are probe span {e call counts} at the pass boundaries — the
   same unit the service deadline ([Budget.deadline]) ticks in — so they
   are a pure function of (input, config) and every histogram here is
   byte-reproducible.

   [t] is an immutable record of registry handles, so it holds no lock
   of its own: every handle carries the registry's.  The known pass
   names are pre-registered in pipeline order so the exposition layout
   never depends on which pass happened to run first on which domain; an
   unknown pass name (none today) goes through the registry's
   find-or-add and registers itself on first sight. *)

module Registry = Lslp_obs.Registry

(* Pipeline order of the instrumented pass boundaries. *)
let known_passes =
  [ "seed-collect"; "graph-build"; "cost"; "codegen"; "reduction"; "cse";
    "dce" ]

let step_buckets = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 |]
let job_step_buckets = [| 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 |]

type t = {
  registry : Registry.t;
  counters : ((Probe.counters -> int) * Registry.counter) list;
  job_steps : Registry.histogram;
  pass_hists : (string * Registry.histogram) list;
}

let pass_histogram registry pass =
  Registry.histogram registry
    ~help:"Probe steps charged per pass per run."
    ~labels:[ ("pass", pass) ] ~buckets:step_buckets "lslp_pass_steps"

let create ?root:_ registry =
  (* bind in exposition order: record-field evaluation order is
     unspecified, registration order is what the exporters walk *)
  let counters =
    List.map
      (fun (name, get) ->
        ( get,
          Registry.counter registry
            ~help:(Fmt.str "Pipeline '%s' counter, summed over runs." name)
            (Fmt.str "lslp_pipeline_%s_total" name) ))
      Probe.counter_fields
  in
  let job_steps =
    Registry.histogram registry
      ~help:"Total probe steps per pipeline run (all passes)."
      ~buckets:job_step_buckets "lslp_job_pass_steps"
  in
  let pass_hists =
    List.map (fun p -> (p, pass_histogram registry p)) known_passes
  in
  { registry; counters; job_steps; pass_hists }

let observe t (r : Report.t) =
  let snap = r.Report.total in
  List.iter
    (fun (get, c) -> Registry.add c (get snap.Probe.s_counters))
    t.counters;
  let steps =
    List.fold_left (fun acc (_, calls) -> acc + calls) 0 snap.Probe.s_steps
  in
  Registry.observe t.job_steps steps;
  List.iter
    (fun (pass, calls) ->
      let h =
        match List.assoc_opt pass t.pass_hists with
        | Some h -> h
        | None -> pass_histogram t.registry pass
      in
      Registry.observe h calls)
    snap.Probe.s_steps
