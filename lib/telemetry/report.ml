(* Aggregated telemetry: per-block probe snapshots plus their sum.

   Counters and pass steps are deterministic, so cram tests pin both
   renderers: the counter table and the JSON document, which carries the
   steps too. *)

type t = {
  func : string;
  config : string;
  blocks : (string * Probe.snapshot) list;  (* block label, in block order *)
  total : Probe.snapshot;
}

let make ~func ~config blocks =
  { func; config; blocks; total = Probe.merge (List.map snd blocks) }

let empty ~func ~config =
  { func; config; blocks = []; total = Probe.empty_snapshot }

let total_counters t = t.total.Probe.s_counters

(* ---- human rendering --------------------------------------------- *)

let pp_row ppf label (c : Probe.counters) =
  Fmt.pf ppf "%-10s" label;
  List.iter (fun (_, get) -> Fmt.pf ppf " %8d" (get c)) Probe.counter_fields

let pp_counters ppf t =
  Fmt.pf ppf "=== telemetry: %s, %s ===@." t.config t.func;
  Fmt.pf ppf "%-10s" "block";
  List.iter (fun (name, _) -> Fmt.pf ppf " %8s" name) Probe.counter_fields;
  Fmt.pf ppf "@.";
  List.iter
    (fun (label, (s : Probe.snapshot)) ->
      pp_row ppf label s.Probe.s_counters;
      Fmt.pf ppf "@.")
    t.blocks;
  pp_row ppf "total" t.total.Probe.s_counters;
  Fmt.pf ppf "@."

(* ---- JSON (shared emitter) ------------------------------------------ *)

module Json = Lslp_util.Json

let counters_json (c : Probe.counters) =
  Json.Obj
    (List.map (fun (name, get) -> (name, Json.Int (get c)))
       Probe.counter_fields)

let snapshot_fields (s : Probe.snapshot) =
  [
    ("counters", counters_json s.Probe.s_counters);
    ( "steps",
      Json.Arr
        (List.map
           (fun (pass, calls) ->
             Json.Obj [ ("pass", Json.Str pass); ("calls", Json.Int calls) ])
           s.Probe.s_steps) );
  ]

let json t =
  Json.Obj
    [
      ("config", Json.Str t.config);
      ("function", Json.Str t.func);
      ( "blocks",
        Json.Arr
          (List.map
             (fun (label, s) ->
               Json.Obj (("block", Json.Str label) :: snapshot_fields s))
             t.blocks) );
      ("total", Json.Obj (snapshot_fields t.total));
    ]
