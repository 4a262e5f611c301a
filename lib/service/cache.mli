(** The compile service's verified result cache.

    Content-addressed: the canonical key is
    [digest (printed input IR, Config.fingerprint)], so caching is keyed
    by {e what the pipeline would see}, not by source spelling; a
    front table keyed by [digest (source, unroll, fingerprint)] lets warm
    hits skip the frontend entirely.

    {b Validate once, check what is served.}  {!insert} runs the legality
    validator ([Lslp_check.Legality.validate]) over the compiled function
    against the dependence-graph snapshot taken before the pass, and
    stores the result only if it is clean.  It also records an MD5 of
    the payload.  Every hit recomputes that digest and compares it; a
    mismatch — including an injected cache poisoning, which flips one
    byte of the served IR — evicts the entry and returns [None]; the
    caller recompiles.  A poisoned cache therefore costs one recompile,
    never a wrong result.

    Thread-safe: one internal mutex guards the tables, and validation and
    digests run outside it, so domains hitting the same entry check it
    concurrently.  Entries are immutable: poisoning installs a damaged
    copy, and a failed check evicts only the entry it checked.  Safe to
    share across pool domains. *)

type cached = {
  ir : string;
      (** printed output IR, alpha-renamed by {!Lslp_util.Normalize}: the
          service's published output format *)
  remarks : string list;
  counters : (string * int) list;
  vectorized : int;
}
(** What a hit returns — the printable result of the original compile.
    Only clean runs are cached (no armed injector, no degraded regions,
    no error diagnostics), so there is no [degraded] field by
    construction. *)

type t

val create : metrics:Lslp_telemetry.Pool_stats.metrics -> unit -> t
(** Each hit, poisoning, verification, eviction, miss and insert is one
    [Pool_stats.record] into [metrics], with tick [-1]: the cache does not
    see the pool's virtual clock. *)

val source_key : source:string -> unroll:int -> fingerprint:string -> string
(** The front key for a job, computable without parsing. *)

val find_by_source :
  t -> label:string -> source_key:string -> poison:bool -> cached option
(** Warm-path lookup.  [None] means front miss {e or} eviction — either
    way the caller proceeds to parse and {!find_by_ir}.  [poison] applies
    the armed cache-poison fault to the entry before its digest check. *)

val find_by_ir :
  t ->
  label:string ->
  source_key:string ->
  input_norm:string ->
  fingerprint:string ->
  poison:bool ->
  cached option
(** Canonical lookup by printed input IR.  A verified hit also aliases
    [source_key] so the next lookup for this source skips parsing.  A miss
    (including digest collisions, which are detected by exact comparison
    and never trusted) bumps [cache_misses]. *)

val insert :
  t ->
  label:string ->
  source_key:string ->
  input_norm:string ->
  fingerprint:string ->
  snap:Lslp_check.Legality.snapshot ->
  func:Lslp_ir.Func.t ->
  cached ->
  unit
(** Store a clean compile: [func] is the transformed function whose
    instruction ids match [snap].  It is validated against [snap] and the
    entry keeps only the payload and its digest; a result with legality
    errors is not stored and counts as an eviction ([cache-evicted]).
    First writer wins on concurrent inserts of the same key. *)

val length : t -> int
(** Distinct canonical entries currently cached. *)
