(** Types for IR values.

    The IR is deliberately small: 64-bit integers, 64-bit floats, fixed-width
    vectors of either, and [Void] for instructions executed for effect
    (stores). *)

type scalar = I64 | F64 | I32 | F32 | I1

type t =
  | Scalar of scalar
  | Vec of scalar * int  (** element type and lane count (>= 2) *)
  | Void

val i64 : t
val f64 : t
val i32 : t
val f32 : t

val i1 : t
(** The mask scalar: one truth lane, produced by compares and consumed by
    select/masked memory ops.  No array has i1 elements. *)

val of_scalar : scalar -> t
(** [Scalar s], shared: {!i64}, {!f64}, ... rather than a fresh block. *)

val vec : scalar -> int -> t
(** [vec elt lanes] is the vector type with [lanes] lanes.
    @raise Invalid_argument if [lanes < 2]. *)

val scalar_of : t -> scalar option
(** Element type of a scalar or vector type; [None] for [Void]. *)

val lanes : t -> int
(** Lane count: 1 for scalars, [n] for vectors, 0 for [Void]. *)

val is_float_scalar : scalar -> bool
val is_float : t -> bool
val is_vector : t -> bool

val is_mask_scalar : scalar -> bool
(** [true] exactly for [I1]. *)

val scalar_size_bytes : scalar -> int
(** Size of one element in bytes (8 for i64/f64, 4 for i32/f32, 1 for i1). *)

val widen : t -> int -> t
(** [widen (Scalar s) n] is [Vec (s, n)].
    @raise Invalid_argument on vector or void input. *)

val equal_scalar : scalar -> scalar -> bool
val equal : t -> t -> bool

val scalar_name : scalar -> string
(** ["i64"], ["f64"], ["i32"], ["f32"] or ["i1"]. *)

val bprint : Buffer.t -> t -> unit
(** Appends the text form ([i64], [<4 x f64>], [void]); [pp] and
    [to_string] are wrappers over it. *)

val pp_scalar : scalar Fmt.t
val pp : t Fmt.t
val to_string : t -> string
