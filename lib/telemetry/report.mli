(** Aggregated telemetry for one pipeline run: per-block snapshots plus a
    function-wide total.

    {!pp_counters} renders the deterministic counter table (pin it in
    golden tests); {!json} carries the counters and the per-pass step
    counts. *)

type t = {
  func : string;
  config : string;
  blocks : (string * Probe.snapshot) list;
  total : Probe.snapshot;
}

val make : func:string -> config:string -> (string * Probe.snapshot) list -> t
(** [make ~func ~config blocks] computes the total as the pointwise sum. *)

val empty : func:string -> config:string -> t

val total_counters : t -> Probe.counters

val pp_counters : t Fmt.t
(** Deterministic counter table, one row per block plus a total row. *)

val json : t -> Lslp_util.Json.t
(** The report (counters and pass steps) as a {!Lslp_util.Json} value. *)
