(** Seeded, deterministic fault injection at pass boundaries.

    Tests and [lslpc --inject pass:rate:seed] use this to force failures
    inside the pipeline and prove the transactional rollback path end to
    end.  All points except {!Corrupt} raise {!Fault} when they fire;
    [Corrupt] instead scrambles the freshly vectorized block so the
    in-transaction verifier has to detect the damage and trigger the
    rollback itself. *)

open Lslp_ir

type point =
  | Graph_build
  | Reorder
  | Codegen
  | Reduction
  | Cse
  | Dce
  | Verify
  | Corrupt
  | Worker_raise  (** service: the worker crashes as it picks up a job *)
  | Worker_hang
      (** service: the job spins at a pass boundary until the deadline
          watchdog cancels it (see {!Budget.deadline_spin}) *)
  | Cache_poison
      (** service: one byte of the cached IR is flipped before the hit's
          payload digest check runs *)
  | Queue_full
      (** service: the admission queue pretends to be saturated, forcing
          the shed policy *)

val all_points : point list
(** Every {e pipeline} boundary (what ["all"] parses to); the four
    service-boundary points are deliberately excluded — they are armed via
    {!service_points} / ["service"] and fired by the Domain-pool executor,
    never inside a pipeline transaction. *)

val service_points : point list

val point_name : point -> string
val point_of_name : string -> point option

type t

exception Fault of point

val make : ?points:point list -> ?rate:float -> seed:int -> unit -> t
(** [points] defaults to every boundary, [rate] to 1.0 (always fire). *)

val parse : string -> (t, string) result
(** ["pass[:rate[:seed]]"] with [pass] a point name, ["all"] (every
    pipeline boundary) or ["service"] (every service boundary); rate
    defaults to 1.0, seed to 0. *)

val fired : t -> int
(** How many faults have fired so far (monotone across a run). *)

val reseed : t -> seed:int -> t
(** A fresh injector with the same points and rate but new dice — how the
    fuzzer turns one [--inject] spec into a per-case deterministic
    injector. *)

val fires : t -> point -> bool
(** Roll the seeded dice for one boundary; counts towards {!fired}. *)

val maybe_fail : t option -> point -> unit
(** @raise Fault when the spec covers [point] and the dice fire.  Never
    raises for {!Corrupt} (see {!corrupts}). *)

val corrupts : t option -> bool
(** Whether the post-codegen corruption should be applied now. *)

val corrupt_block : Block.t -> bool
(** Damage the block in a way the structural verifier always detects
    (duplicate instruction identity).  Returns false on an empty block. *)

val pp : t Fmt.t
