(** Minimal JSON: one shared document type, one emitter, one reader.

    Every JSON document the project produces — optimization remarks
    ([Lslp_check.Remark]), telemetry reports ([Lslp_telemetry.Report]),
    fuzzer summaries ([Lslp_fuzz.Fuzz]), metrics and flight-recorder
    dumps ([Lslp_obs]) and the bench baseline snapshot — renders through
    {!to_string}, so string escaping (quotes, backslashes, control
    characters) is implemented exactly once.  The reader side ({!of_string})
    is what the bench-regression gates use to load the committed
    baselines, and what the tests parse each flight-recorder JSONL line
    with. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** field order is preserved verbatim *)

val to_string : t -> string
(** Minified rendering: no whitespace, object fields in the order given.
    Non-finite floats render as [null] (JSON has no NaN/infinity). *)

val of_string : string -> (t, string) result
(** Strict parser: one complete value, no trailing garbage.  Accepts
    arbitrary nesting, all escape forms including [\uXXXX] (surrogate pairs
    decoded to UTF-8), and distinguishes integral numbers ([Int]) from the
    rest ([Float]).  Errors carry a byte offset. *)

(** {2 Accessors} (for tests and the baseline diff) *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on anything else or a missing field. *)

val to_int_opt : t -> int option
val to_list_opt : t -> t list option
