(* One-command compiler benchmark.

     main.exe --workload catalog|chains|batch-mixed --seed N --seconds S
              --trace 0|1

   Every workload is a closed loop driven from this process.  A run sets
   up its seeded inputs (several times, reporting the median set-up time),
   passes the correctness gate outside any timed region, then measures:

   - [--trace 0]: the end-to-end metrics, with no tracing at all;
   - [--trace 1]: the per-layer metrics.  The pass and service loops are
     replayed from [Replay] with a span around every call into a layer;
     the replay must reproduce the real output byte for byte,
     two fresh 1-domain probe processes must agree on every allocation
     and work count ([Alloc]), and half the time runs untraced so the
     tracing overhead is measured.

   Every metric is printed by name with its unit; the last line of
   standard output is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics].  A correctness failure prints
   [correct: false] and exits 1. *)

open Common
module Json = Lslp_util.Json

let usage () =
  prerr_endline
    "usage: main.exe --workload catalog|chains|batch-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let run ~workload ~seed ~seconds ~trace =
  let metrics, desc =
    match workload with
    | "catalog" -> Programs.run Programs.Catalog ~seed ~seconds ~trace
    | "chains" -> Programs.run Programs.Chains ~seed ~seconds ~trace
    | "batch-mixed" -> Batch.run ~seed ~seconds ~trace
    | _ -> usage ()
  in
  let metrics =
    if trace then metrics @ Alloc.metrics ~workload ~seed else metrics
  in
  (metrics, desc)

let probe ~workload ~seed =
  let s, counters =
    match workload with
    | "catalog" -> Programs.probe Programs.Catalog ~seed
    | "chains" -> Programs.probe Programs.Chains ~seed
    | "batch-mixed" -> Batch.probe ~seed
    | _ -> usage ()
  in
  print_endline (Alloc.line s counters)

let report ~workload ~seed ~trace result =
  let correct, metrics =
    match result with
    | Ok (metrics, desc) ->
      Fmt.pr "%s seed=%d trace=%b: %s@." workload seed trace desc;
      List.iter (fun (name, v, u) -> Fmt.pr "%-28s %16.4f %s@." name v u) metrics;
      Fmt.pr "%-28s %16.4f ratio (%d failed / %d attempted)@." "error_rate"
        (ratio (float_of_int tally.failed) (float_of_int tally.attempted))
        tally.failed tally.attempted;
      (tally.failed = 0, metrics)
    | Error msg ->
      Fmt.pr "correctness failure: %s@." msg;
      tally.failed <- tally.failed + 1;
      (false, [])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 tally.attempted));
            ("failed", Json.Int tally.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, u) ->
                     ( name,
                       Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ] ))
                   metrics) );
          ]));
  correct

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref false and alloc_probe = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--alloc-probe" :: rest -> alloc_probe := true; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let workload = !workload and seed = !seed and trace = !trace in
  if !alloc_probe then probe ~workload ~seed
  else
    let result =
      match run ~workload ~seed ~seconds:!seconds ~trace with
      | r -> Ok r
      | exception Failed msg -> Error msg
    in
    if not (report ~workload ~seed ~trace result) then exit 1
