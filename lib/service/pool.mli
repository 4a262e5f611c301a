(** The supervised Domain pool under the compile service.

    [run config jobs] shards the jobs across [config.domains] OCaml 5
    Domains and returns one typed {!outcome} per job, in job order.  The
    contract is fail-soft at the {e job} level, mirroring what
    [Lslp_robust.Transact] gives individual regions:

    - {b Crash isolation.}  An exception escaping a job attempt — an
      injected [Inject.Fault], a genuine bug — ends only the worker loop
      running it.  The worker records a retry or a typed failure for its
      job, then its loop ends; the orchestrator awaits it and launches a
      replacement loop, so the pool never loses capacity permanently.
    - {b Deadlines.}  With [deadline_steps] set, every attempt carries a
      fresh {!Lslp_robust.Budget.deadline} the pipeline ticks at its pass
      boundaries; expiry raises [Budget.Deadline_expired] out of the job,
      which the pool maps to {!Timed_out}.  Cancellation is cooperative:
      a worker is never killed preemptively, it always observes the
      expiry itself at the next boundary.
    - {b Retries with deterministic backoff.}  A crashed or timed-out job
      is re-queued up to [retries] times with exponential backoff measured
      in virtual scheduling ticks (the clock advances on pool events, not
      wall time — rule R4 keeps holding).  Exhausting the cap records
      {!Degraded_to_failure}.
    - {b Backpressure.}  The ready queue is bounded at [queue_cap]; the
      submitting orchestrator blocks while it is full.  The explicit shed
      path ({!Shed}, counted and recorded) fires when the queue-full fault
      is armed: admission pretends saturation and degrades the job
      without running it — the pool itself never drops a job silently.

    Determinism: per-attempt injectors are derived from
    [(job_seed, job index, attempt)] alone, so a fault schedule does not
    depend on which domain picks a job up.  Outcomes are positionally
    deterministic for a given (jobs, config) even though scheduling order
    is not. *)

type failure =
  | Crashed of string       (** the attempt raised; payload is the message *)
  | Timed_out of { steps : int }
      (** the cooperative deadline expired after [steps] boundary ticks *)
  | Shed  (** rejected at admission by the backpressure policy *)

type 'a outcome =
  | Done of 'a
  | Degraded_to_failure of { attempts : int; failure : failure }
      (** the job ran out of attempts ([attempts = 0] iff shed); the last
          failure is recorded.  The service layer surfaces this as a typed
          degradation, never as an exception. *)

type config = {
  domains : int;        (** worker Domains; clamped to [>= 1] *)
  queue_cap : int;      (** ready-queue bound; clamped to [>= 1] *)
  retries : int;        (** re-queues per job after the first attempt *)
  backoff : int;        (** base retry delay in virtual ticks; doubles per
                            attempt *)
  deadline_steps : int option;
      (** per-attempt pass-boundary budget; [None] disables the watchdog *)
  inject_for : int -> Lslp_robust.Inject.t option;
      (** service-fault spec per job index; the pool re-seeds it per
          attempt and also threads it into the job function *)
  job_seed : int;  (** root of the per-attempt injector derivation *)
}

val default_config : config
(** 4 domains, queue 64, 2 retries, backoff base 2, no deadline, no
    faults. *)

val run :
  ?metrics:Lslp_telemetry.Pool_stats.metrics ->
  config ->
  (string
  * (inject:Lslp_robust.Inject.t option ->
     deadline:Lslp_robust.Budget.deadline option ->
     'a))
  array ->
  'a outcome array
(** [run config jobs] with [jobs] an array of [(label, fn)].  [fn] receives
    the attempt's injector (for pipeline/cache fault points) and its
    deadline (to thread into [Config.with_deadline]); whatever [fn] raises
    is this attempt's failure.  Blocks until every job has an outcome.

    With [metrics], each lifecycle transition is one [Pool_stats.record]
    under the pool lock, with the attempt's injector seed and the latency,
    attempts and queue depth it carries (virtual ticks and slots: nothing
    reads the clock).  The flight ring is the pool's only per-job log. *)

val pp_failure : failure Fmt.t

(** {1 Parked worker domains}

    The pool runs its worker loops on domains that outlive a batch: a
    finished loop parks its domain in a process-wide idle set and the
    next {!launch} reuses it, so a batch pays no domain spawn or fresh
    minor heap.  The idle set never holds more domains than were ever
    running at once. *)

type handle
(** One thunk running on a parked domain. *)

val launch : (unit -> unit) -> handle
(** Run the thunk on an idle parked domain, spawning one when none is
    free.  The thunk runs under the calling domain's minor heap size:
    the parked domain is resized to it first when the two differ. *)

val await : handle -> unit
(** Block until the thunk has finished, then return its domain to the
    idle set.  If the thunk raised, re-raise the exception (as
    [Domain.join] does); that domain ends and is not reused.  Await each
    handle exactly once. *)
