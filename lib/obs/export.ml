(* Exposition: one registry snapshot, two formats.

   - Prometheus text (0.0.4): HELP/TYPE per family, cumulative
     [le]-labelled buckets for histograms — the `--metrics-out` dump,
     which `make metrics-check` compares byte for byte with a committed
     baseline.
   - Lslp_util.Json: the same snapshot as one minified document, with
     derived percentiles included per histogram — printed by
     `--stats-json` and `lslpc stats --json`.

   [pp_table] summarises the histograms for a human reader; it is not a
   dump.  Everything walks the snapshot in registration order and is pure —
   identical snapshots render identical bytes. *)

module Json = Lslp_util.Json
module Registry = Registry

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let label_block labels =
  match labels with
  | [] -> ""
  | _ ->
    Fmt.str "{%s}"
      (String.concat ","
         (List.map
            (fun (k, v) -> Fmt.str "%s=\"%s\"" k (escape_label v))
            labels))

let type_name = function
  | Registry.Counter_v _ -> "counter"
  | Registry.Gauge_v _ -> "gauge"
  | Registry.Histogram_v _ -> "histogram"

let prometheus samples =
  let buf = Buffer.create 4096 in
  let last_family = ref "" in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string buf s;
                            Buffer.add_char buf '\n') fmt in
  List.iter
    (fun (s : Registry.sample) ->
      if s.s_name <> !last_family then begin
        last_family := s.s_name;
        if s.s_help <> "" then line "# HELP %s %s" s.s_name s.s_help;
        line "# TYPE %s %s" s.s_name (type_name s.s_value)
      end;
      match s.s_value with
      | Registry.Counter_v v | Registry.Gauge_v v ->
        line "%s%s %d" s.s_name (label_block s.s_labels) v
      | Registry.Histogram_v h ->
        let cum = ref 0 in
        Array.iteri
          (fun i c ->
            if i < Array.length h.bounds then begin
              cum := !cum + c;
              line "%s_bucket%s %d" s.s_name
                (label_block (s.s_labels @ [ ("le", string_of_int h.bounds.(i)) ]))
                !cum
            end)
          h.counts;
        line "%s_bucket%s %d" s.s_name
          (label_block (s.s_labels @ [ ("le", "+Inf") ]))
          h.hcount;
        line "%s_sum%s %d" s.s_name (label_block s.s_labels) h.hsum;
        line "%s_count%s %d" s.s_name (label_block s.s_labels) h.hcount)
    samples;
  Buffer.contents buf

(* {2 JSON exposition} *)

let percentile_fields h =
  [
    ("p50", Json.Int (Registry.percentile h 0.50));
    ("p95", Json.Int (Registry.percentile h 0.95));
    ("p99", Json.Int (Registry.percentile h 0.99));
  ]

let sample_json (s : Registry.sample) =
  let base =
    [
      ("name", Json.Str s.s_name);
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.s_labels));
      ("type", Json.Str (type_name s.s_value));
    ]
  in
  match s.s_value with
  | Registry.Counter_v v | Registry.Gauge_v v ->
    Json.Obj (base @ [ ("value", Json.Int v) ])
  | Registry.Histogram_v h ->
    let cum = ref 0 in
    let buckets =
      List.concat
        [
          List.mapi
            (fun i b ->
              cum := !cum + h.counts.(i);
              Json.Obj
                [ ("le", Json.Str (string_of_int b)); ("count", Json.Int !cum) ])
            (Array.to_list h.bounds);
          [ Json.Obj
              [ ("le", Json.Str "+Inf"); ("count", Json.Int h.hcount) ] ];
        ]
    in
    Json.Obj
      (base
      @ [
          ("buckets", Json.Arr buckets);
          ("sum", Json.Int h.hsum);
          ("count", Json.Int h.hcount);
          ("min", Json.Int h.hmin);
          ("max", Json.Int h.hmax);
        ]
      @ percentile_fields h)

let json samples =
  Json.Obj
    [
      ("schema", Json.Str "lslp-metrics/1");
      ("metrics", Json.Arr (List.map sample_json samples));
    ]

(* {2 Human histogram table} *)

let pp_table ppf samples =
  let hists =
    List.filter_map
      (fun (s : Registry.sample) ->
        match s.s_value with
        | Registry.Histogram_v h ->
          Some (s.s_name ^ label_block s.s_labels, h)
        | Counter_v _ | Gauge_v _ -> None)
      samples
  in
  Fmt.pf ppf "@[<v>%-40s %7s %9s %6s %6s %6s %6s %6s" "histogram" "count"
    "sum" "min" "max" "p50" "p95" "p99";
  List.iter
    (fun (name, (h : Registry.hview)) ->
      Fmt.pf ppf "@,%-40s %7d %9d %6d %6d %6d %6d %6d" name h.hcount h.hsum
        h.hmin h.hmax
        (Registry.percentile h 0.50)
        (Registry.percentile h 0.95)
        (Registry.percentile h 0.99))
    hists;
  Fmt.pf ppf "@]"
