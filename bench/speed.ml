(* Compile-throughput harness: `make bench-speed`.

   Measures how fast the compiler itself runs — ns per catalog pass, where
   one pass parses, lowers and (for vectorizing configs) runs the full
   pipeline over every catalog kernel.  Two timing modes back each number:

   - one-shot: [reps] whole passes under one monotonic-clock reading (the
     deterministic, CI-friendly mode; catalog x1000 by default);
   - bechamel: OLS estimate over self-tuned batch sizes (the statistically
     careful mode for local before/after comparisons).

   Results are *appended* to bench_results/BENCH_speed.json as a dated-by-
   commit trajectory: every entry names the workload shape, so speedups
   across entries are honest only when kernels/reps match.  There is no
   tolerance gate (wall-clock is machine noise); CI runs this report-only.

     speed [--reps N] [--note S] [--out F] [--no-bechamel] [--no-write]   *)

open Bechamel
open Toolkit
open Lslp_core
module Json = Lslp_util.Json
module Catalog = Lslp_kernels.Catalog

let out_path = ref "bench_results/BENCH_speed.json"
let reps = ref 1000
let note = ref ""
let with_bechamel = ref true
let with_write = ref true

(* One catalog pass: parse + lower every kernel and, when a config is
   given, run the pipeline over it.  The instruction count is returned so
   the work cannot be elided. *)
let catalog_pass config_opt () =
  let acc = ref 0 in
  List.iter
    (fun (k : Catalog.kernel) ->
      let f = Catalog.compile k in
      (match config_opt with
       | Some config -> ignore (Pipeline.run ~config f)
       | None -> ());
      acc := !acc + Lslp_ir.Func.num_instrs f)
    Catalog.all;
  !acc

let configs =
  [ ("O3", None); ("SLP", Some Config.slp); ("LSLP", Some Config.lslp) ]

let oneshot name pass =
  let n = !reps in
  let t0 = Unix.gettimeofday () in
  let live = ref 0 in
  for _ = 1 to n do
    live := pass ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let ns = dt *. 1e9 /. float_of_int n in
  Fmt.pr "%-6s one-shot  %12.0f ns/pass  %8.1f passes/s  (%d reps, %d live instrs)@."
    name ns (float_of_int n /. dt) n !live;
  ns

let bechamel_ns () =
  let tests =
    Test.make_grouped ~name:"speed"
      (List.map
         (fun (name, config_opt) ->
           Test.make ~name (Staged.stage (catalog_pass config_opt)))
         configs)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  List.filter_map
    (fun (name, _) ->
      match Analyze.OLS.estimates (Hashtbl.find results ("speed/" ^ name)) with
      | Some [ ns ] ->
        Fmt.pr "%-6s bechamel  %12.0f ns/pass@." name ns;
        Some (name, ns)
      | _ -> None)
    configs

let speedup_vs_first runs (current : (string * float) list) =
  (* LSLP one-shot ns of the oldest recorded run with the same workload *)
  match runs with
  | Json.Obj fields :: _ -> (
    match
      ( List.assoc_opt "reps" fields,
        List.assoc_opt "oneshot_ns_per_pass" fields )
    with
    | Some (Json.Int r), Some (Json.Obj ns) when r = !reps -> (
      match (List.assoc_opt "LSLP" ns, List.assoc_opt "LSLP" current) with
      | Some (Json.Float first), Some now when now > 0. ->
        Some (first /. now)
      | _ -> None)
    | _ -> None)
  | _ -> None

let () =
  let rec parse = function
    | [] -> ()
    | "--reps" :: v :: rest ->
      reps := int_of_string v;
      parse rest
    | "--note" :: v :: rest ->
      note := v;
      parse rest
    | "--out" :: v :: rest ->
      out_path := v;
      parse rest
    | "--no-bechamel" :: rest ->
      with_bechamel := false;
      parse rest
    | "--no-write" :: rest ->
      with_write := false;
      parse rest
    | arg :: _ ->
      Fmt.epr
        "usage: speed [--reps N] [--note S] [--out F] [--no-bechamel] \
         [--no-write] (got %s)@."
        arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  Fmt.pr "bench-speed: catalog (%d kernels) x %d@."
    (List.length Catalog.all) !reps;
  let oneshot_ns =
    List.map (fun (name, c) -> (name, oneshot name (catalog_pass c))) configs
  in
  let bech_ns = if !with_bechamel then bechamel_ns () else [] in
  let prior = Run_log.load_runs !out_path in
  (match speedup_vs_first prior oneshot_ns with
   | Some s ->
     Fmt.pr "LSLP compile-throughput vs first recorded run: %.2fx@." s
   | None -> ());
  if !with_write then begin
    let ns_obj pairs =
      Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) pairs)
    in
    let run =
      Json.Obj
        ([
           ("note", Json.Str !note);
           ("kernels", Json.Int (List.length Catalog.all));
           ("reps", Json.Int !reps);
           ("oneshot_ns_per_pass", ns_obj oneshot_ns);
         ]
        @ (match bech_ns with
           | [] -> []
           | ns -> [ ("bechamel_ns_per_pass", ns_obj ns) ])
        @
        match Run_log.git_commit () with
        | Some c -> [ ("commit", Json.Str c) ]
        | None -> [])
    in
    let doc =
      Json.Obj
        [
          ("schema", Json.Str "lslp-bench-speed/1");
          ("runs", Json.Arr (prior @ [ run ]));
        ]
    in
    let oc = open_out_bin !out_path in
    output_string oc (Json.to_string doc);
    output_string oc "\n";
    close_out oc;
    Fmt.pr "bench-speed: appended run to %s@." !out_path
  end
