(** An int's decimal text, written without [string_of_int], which runs the
    printf machinery: about ten times a short [Buffer.add_string].  Both
    give exactly [string_of_int]'s text, negatives and [min_int] included. *)

val add : Buffer.t -> int -> unit
(** [add buf n] appends [string_of_int n]. *)

val with_prefix : string -> int -> string
(** [with_prefix p n] is [p ^ string_of_int n], built as one string. *)
