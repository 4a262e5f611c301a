(** Sharded fuzzing on the Domain pool ([lslpc fuzz --jobs N]).

    One pool job per fuzz case, each running {!Lslp_fuzz.Fuzz.case}, so
    sharding cannot change any outcome; {!Lslp_fuzz.Fuzz.stats} folds the
    result exactly as it folds the sequential sweep. *)

val run :
  ?arm:Lslp_fuzz.Fuzz.arm ->
  ?inject_spec:Lslp_robust.Inject.t ->
  pool:Pool.config ->
  cases:int ->
  seed:int ->
  unit ->
  Lslp_fuzz.Fuzz.outcome array
(** Outcome [k] belongs to case [k].  A case the pool degraded (only
    possible with service faults armed in [pool]) becomes a failed
    outcome naming the pool failure. *)

val check_against_sequential :
  ?arm:Lslp_fuzz.Fuzz.arm ->
  ?inject_spec:Lslp_robust.Inject.t ->
  seed:int ->
  Lslp_fuzz.Fuzz.outcome array ->
  int list
(** Re-run every case sequentially in the calling domain and return the
    cases whose outcome differs structurally; [[]] is the determinism
    assertion behind [--jobs]. *)
