(** Pipeline-side metrics: {!Probe} reports folded into an
    {!Lslp_obs.Registry}.

    {!observe} takes a finished {!Report.t} and feeds (a) the nine
    deterministic pipeline counters as [lslp_pipeline_*_total], (b) a
    total-steps-per-run histogram [lslp_job_pass_steps], (c) one
    [lslp_pass_steps{pass=...}] histogram per instrumented pass boundary,
    and (d) folded stacks ["root;func;block;pass steps"].

    "Steps" are probe span call counts — the unit the service deadline
    ticks in — never wall-clock, so everything here is a pure function of
    (input, config) and byte-reproducible.  Known passes are
    pre-registered in pipeline order so exposition layout is independent
    of scheduling.  Safe to share across pool worker domains. *)

type t

val known_passes : string list
(** The instrumented pass boundaries, in pipeline order. *)

val create : ?root:string -> Lslp_obs.Registry.t -> t
(** [root] (default ["lslp"]) becomes the first folded-stack frame. *)

val observe : t -> Report.t -> unit
(** Fold one finished report in.  Never raises. *)

val folded : t -> string
(** The accumulated folded stacks, sorted, in flamegraph.pl dialect. *)
