(* The per-layer allocation gate: `make layers-check`.

   Runs the benchmark's allocation probe
   (`perfbench/main.exe --workload W --seed 7 --alloc-probe`) once per
   workload and compares each printed line with the committed snapshot
   (bench_results/LAYERS_baseline.json), tolerance-free.  A line holds the
   request count, the self-allocated words and the call count of every
   traced span, and a digest of every replayed compile's work counters.
   Two fresh processes print the same line, so any difference is a change
   in what a layer allocates or how often it is entered, never noise.

     layers --check --probe EXE   compare against the committed snapshot
     layers --write --probe EXE   regenerate it after an intended change

   On a mismatch every moved field is named (span words and calls by span
   name), so the commit that regenerates the snapshot can state each
   layer's change. *)

module Json = Lslp_util.Json

let baseline_path = "bench_results/LAYERS_baseline.json"
let workloads = [ "catalog"; "chains"; "batch-mixed" ]
let seed = 7

(* The probe's span order: the [names] table of perfbench/span.ml. *)
let span_names =
  [| "bench.compile"; "service.job"; "frontend.parse"; "frontend.lower";
     "frontend.unroll"; "core.pipeline"; "ir.arena"; "core.seeds";
     "analysis.depgraph"; "core.graph_build"; "core.cost"; "core.codegen";
     "ir.verify"; "core.reduction"; "ir.cse"; "ir.dce"; "ir.print";
     "util.normalize"; "check.snapshot"; "cache.lookup"; "cache.insert" |]

let probe ~exe workload =
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--workload"; workload; "--seed"; string_of_int seed;
         "--alloc-probe" |]
  in
  let rec last prev =
    match input_line ic with l -> last (Some l) | exception End_of_file -> prev
  in
  let line = last None in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> l
  | _ -> Fmt.failwith "layers: the %s allocation probe failed" workload

let parse what s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Fmt.failwith "layers: %s: invalid JSON: %s" what e

let load_baseline () =
  let ic = open_in_bin baseline_path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse baseline_path s

(* One line per workload, so a regenerated snapshot diffs per workload. *)
let write lines =
  let oc = open_out_bin baseline_path in
  output_string oc "{\n";
  List.iteri
    (fun k (w, line) ->
      Printf.fprintf oc "%S: %s%s\n" w line
        (if k = List.length lines - 1 then "" else ","))
    lines;
  output_string oc "}\n";
  close_out oc;
  Fmt.pr "layers-baseline: wrote %s@." baseline_path

let array_field name j =
  match Option.bind (Json.member name j) Json.to_list_opt with
  | Some l -> Array.of_list l
  | None -> [||]

let show = function
  | Some v -> Json.to_string v
  | None -> "(absent)"

(* Every field of one workload's line that differs, named. *)
let diffs ~expected ~actual =
  let scalar name =
    let e = Json.member name expected and a = Json.member name actual in
    if e = a then [] else [ (name, show e, show a) ]
  in
  let per_span name =
    let e = array_field name expected and a = array_field name actual in
    List.filter_map
      (fun k ->
        let get arr = if k < Array.length arr then Some arr.(k) else None in
        let ev = get e and av = get a in
        if ev = av then None
        else
          let span =
            if k < Array.length span_names then span_names.(k)
            else string_of_int k
          in
          Some (Fmt.str "%s %s" span name, show ev, show av))
      (List.init (max (Array.length e) (Array.length a)) Fun.id)
  in
  scalar "requests" @ per_span "words" @ per_span "calls" @ scalar "counters"

let check ~exe =
  let baseline = load_baseline () in
  let failed =
    List.fold_left
      (fun failed w ->
        let actual = parse w (probe ~exe w) in
        match Json.member w baseline with
        | None ->
          Fmt.epr "layers-check: %s has no entry in %s@." w baseline_path;
          true
        | Some expected -> (
          match diffs ~expected ~actual with
          | [] ->
            Fmt.pr "layers-check: %s OK@." w;
            failed
          | ds ->
            Fmt.epr "layers-check: %s FAIL, %d field(s) moved@." w
              (List.length ds);
            List.iter
              (fun (field, want, got) ->
                Fmt.epr "  %-28s baseline %s, now %s@." field want got)
              ds;
            true))
      false workloads
  in
  if failed then begin
    Fmt.epr "  (intended change?  run `make layers-baseline`, commit the \
             diff and state each layer's change)@.";
    exit 1
  end

let () =
  match Array.to_list Sys.argv with
  | [ _; "--check"; "--probe"; exe ] -> check ~exe
  | [ _; "--write"; "--probe"; exe ] ->
    write (List.map (fun w -> (w, probe ~exe w)) workloads)
  | _ ->
    Fmt.epr "usage: layers (--check | --write) --probe PERFBENCH_EXE@.";
    exit 2
