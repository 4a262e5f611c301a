(* Exposition: one registry snapshot, two renderings.

   - Prometheus text (0.0.4): HELP/TYPE per family, cumulative
     [le]-labelled buckets for histograms — the `--metrics-out` dump,
     which `make metrics-check` compares byte for byte with a committed
     baseline.
   - [pp_table] summarises the histograms for a human reader; it is not a
     dump.

   Both walk the snapshot in registration order and are pure — identical
   snapshots render identical bytes. *)

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
