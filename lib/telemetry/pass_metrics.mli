(** Pipeline-side metrics: {!Probe} reports folded into an
    {!Lslp_obs.Registry}.

    {!observe} takes a finished {!Report.t} and feeds (a) the nine
    deterministic pipeline counters as [lslp_pipeline_*_total], (b) a
    total-steps-per-run histogram [lslp_job_pass_steps] and (c) one
    [lslp_pass_steps{pass=...}] histogram per instrumented pass boundary.
    The series are keyed by pass alone, so their number does not grow
    with the functions compiled.

    "Steps" are probe span call counts — the unit the service deadline
    ticks in — never wall-clock, so everything here is a pure function of
    (input, config) and byte-reproducible.  Known passes are
    pre-registered in pipeline order so exposition layout is independent
    of scheduling.  [t] holds only registry handles, each of which takes
    the registry's lock, so it is safe to share across pool worker
    domains. *)

type t

val known_passes : string list
(** The instrumented pass boundaries, in pipeline order. *)

val create : ?root:string -> Lslp_obs.Registry.t -> t
(** [root] is ignored; it stays for callers that still pass it. *)

val observe : t -> Report.t -> unit
(** Fold one finished report in; an unknown pass name registers its
    histogram after the known ones.  Never raises. *)
