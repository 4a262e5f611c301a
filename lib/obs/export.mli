(** Exposition of a {!Registry} snapshot: Prometheus text, plus a human
    table of the histograms.

    Both walk the snapshot in registration order and are pure —
    identical snapshots render identical bytes, which is what
    `make metrics-check` gates. *)

val prometheus : Registry.sample list -> string
(** Prometheus text exposition (0.0.4): [# HELP]/[# TYPE] per family,
    cumulative [le]-labelled buckets, [_sum]/[_count] per histogram —
    what [--metrics-out] writes. *)

val pp_table : Format.formatter -> Registry.sample list -> unit
(** Deterministic histogram summary table (count/sum/min/max/p50/p95/p99
    per histogram) for [lslpc stats] and [lslpc batch --stats]. *)
