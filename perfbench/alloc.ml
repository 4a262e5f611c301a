(* Per-layer allocated words, checked for determinism.

   Instruction ids are process-global and end up inside strings the
   compiler builds, so two replays in one process allocate slightly
   different word counts.  Two fresh processes running the same sequence
   must not: the traced run starts this executable twice in probe mode —
   set-up, then one 1-domain traced replay pass — and reports the counts
   as exact only when both runs print the same line. *)

module Json = Lslp_util.Json

let layers = [ "frontend"; "ir"; "analysis"; "core"; "check"; "util"; "service" ]

(* The probe's one line: requests, per-span self words and calls, and a
   digest of every replayed compile's work counters. *)
let line (s : Span.summary) counters =
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map
               (fun cs ->
                 String.concat ","
                   (List.map (fun (n, v) -> n ^ "=" ^ string_of_int v) cs))
               counters)))
  in
  Json.to_string
    (Json.Obj
       [
         ("requests", Json.Int s.Span.requests);
         ( "words",
           Json.Arr
             (Array.to_list (Array.map (fun w -> Json.Float w) s.Span.t_self_words)) );
         ("calls", Json.Arr (Array.to_list (Array.map (fun c -> Json.Int c) s.Span.t_calls)));
         ("counters", Json.Str digest);
       ])

let run_probe ~workload ~seed =
  let exe = Sys.executable_name in
  let ic =
    Unix.open_process_args_in exe
      [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--alloc-probe" |]
  in
  let rec last prev =
    match input_line ic with l -> last (Some l) | exception End_of_file -> prev
  in
  let l = last None in
  match (Unix.close_process_in ic, l) with
  | Unix.WEXITED 0, Some l -> l
  | _ -> Common.fail "allocation probe for %s failed" workload

let metrics ~workload ~seed =
  let a = run_probe ~workload ~seed in
  let b = run_probe ~workload ~seed in
  if a <> b then
    Fmt.pr "allocation probes disagree:@.  %s@.  %s@." a b;
  let field name =
    match Json.of_string a with
    | Ok j -> Json.member name j
    | Error e -> Common.fail "allocation probe output: %s" e
  in
  let words =
    match field "words" with
    | Some (Json.Arr ws) ->
      Array.of_list
        (List.map (function Json.Float w -> w | Json.Int w -> float_of_int w | _ -> 0.) ws)
    | _ -> Common.fail "allocation probe output has no words"
  in
  let requests =
    match Option.bind (field "requests") Json.to_int_opt with
    | Some n -> float_of_int n
    | None -> 0.
  in
  let per_layer l =
    let acc = ref 0. in
    Array.iteri (fun i w -> if Span.layer i = l then acc := !acc +. w) words;
    Common.ratio !acc requests
  in
  List.map (fun l -> (l ^ ".alloc_words", per_layer l, "words")) layers
  @ [ ("trace.counts_exact", (if a = b then 1. else 0.), "bool") ]
