(* Pipeline-side metrics: the probe feeds the registry.

   One {!t} per service (or per CLI invocation); {!observe} folds a
   finished {!Report.t} into it — the nine deterministic pipeline
   counters, a per-run total-step histogram, one step histogram per pass
   (the 8 instrumented boundaries), and folded stacks
   "root;func;block;pass steps" for flamegraph rendering.

   "Steps" are probe span {e call counts} at the pass boundaries — the
   same unit the service deadline ([Budget.deadline]) ticks in — so they
   are a pure function of (input, config) and every histogram here is
   byte-reproducible.

   The known pass names are pre-registered in pipeline order so the
   exposition layout never depends on which pass happened to run first
   on which domain; an unknown pass name (none today) registers itself
   on first sight.  The folded-stack table is guarded by its own mutex
   because workers observe concurrently. *)

module Registry = Lslp_obs.Registry

(* Pipeline order of the instrumented pass boundaries. *)
let known_passes =
  [ "seed-collect"; "graph-build"; "cost"; "codegen"; "reduction"; "cse";
    "dce" ]

let step_buckets = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 |]
let job_step_buckets = [| 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 |]

type t = {
  registry : Registry.t;
  root : string;
  lock : Mutex.t;
  counters : (string * (Probe.counters -> int) * Registry.counter) list;
  job_steps : Registry.histogram;
  mutable pass_hists : (string * Registry.histogram) list;
  stacks : (string, int ref) Hashtbl.t;
}

let pass_histogram registry pass =
  Registry.histogram registry
    ~help:"Probe steps charged per pass per run."
    ~labels:[ ("pass", pass) ] ~buckets:step_buckets "lslp_pass_steps"

let create ?(root = "lslp") registry =
  (* bind in exposition order: record-field evaluation order is
     unspecified, registration order is what the exporters walk *)
  let counters =
    List.map
      (fun (name, get) ->
        ( name,
          get,
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
  {
    registry;
    root;
    lock = Mutex.create ();
    counters;
    job_steps;
    pass_hists;
    stacks = Hashtbl.create 64;
  }

(* lock held *)
let pass_hist t pass =
  match List.assoc_opt pass t.pass_hists with
  | Some h -> h
  | None ->
    let h = pass_histogram t.registry pass in
    t.pass_hists <- t.pass_hists @ [ (pass, h) ];
    h

let observe t (r : Report.t) =
  let snap = r.Report.total in
  List.iter
    (fun (_, get, c) -> Registry.add c (get snap.Probe.s_counters))
    t.counters;
  let steps =
    List.fold_left (fun acc (_, calls) -> acc + calls) 0 snap.Probe.s_steps
  in
  Registry.observe t.job_steps steps;
  Mutex.lock t.lock;
  let hists =
    List.map (fun (pass, calls) -> (pass_hist t pass, calls)) snap.Probe.s_steps
  in
  List.iter
    (fun (block, (s : Probe.snapshot)) ->
      List.iter
        (fun (pass, calls) ->
          let key =
            String.concat ";" [ t.root; r.Report.func; block; pass ]
          in
          match Hashtbl.find_opt t.stacks key with
          | Some n -> n := !n + calls
          | None -> Hashtbl.replace t.stacks key (ref calls))
        s.Probe.s_steps)
    r.Report.blocks;
  Mutex.unlock t.lock;
  (* observe outside our own lock; registry handles carry their own *)
  List.iter (fun (h, calls) -> Registry.observe h calls) hists

let folded t =
  Mutex.lock t.lock;
  let stacks = Hashtbl.fold (fun k n acc -> (k, !n) :: acc) t.stacks [] in
  Mutex.unlock t.lock;
  Lslp_obs.Export.folded stacks
