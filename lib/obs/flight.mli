(** Bounded ring-buffer flight recorder for per-job lifecycle events.

    The service records every pool and cache transition — enqueued,
    dispatched, retried, shed, timed out, crashed, failed, completed,
    cache-hit/poison/verified/evicted/miss/insert — with the pool's virtual
    tick, the attempt index and the attempt's injector seed, so a dumped
    recording is enough to replay a fault schedule exactly.

    Memory is bounded by [cap]: older events are overwritten, and since
    [seq] counts every record the first surviving [seq] is the number
    overwritten.  All fields are deterministic for a fixed (input,
    config, fault spec) on a 1-domain pool, which is what lets
    `make metrics-check` pin a whole {!to_jsonl} dump byte for byte. *)

type event = {
  seq : int;  (** monotone record index, counting overwritten events *)
  tick : int;  (** pool virtual tick; [-1] = recorded off the pool clock
                   (cache events) *)
  kind : string;
  job : string;
  attempt : int;  (** [-1] when the event has no attempt *)
  seed : int;  (** the attempt's injector seed; [0] when not applicable *)
  detail : string;
}

type t

val create : ?cap:int -> unit -> t
(** [cap] defaults to 4096 events; clamped to [>= 1]. *)

val record :
  t -> tick:int -> job:string -> ?attempt:int -> ?seed:int ->
  ?detail:string -> string -> unit
(** [record t ~tick ~job kind] appends one event; never raises, never
    blocks beyond the recorder's own short critical section. *)

val events : t -> event list
(** The surviving window, oldest first. *)

val to_jsonl : t -> string
(** One JSON object per line (schema: seq/tick/event/job/attempt/seed/
    detail), oldest first — the `--flight-out` payload. *)
