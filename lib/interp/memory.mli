(** Array memory for kernel execution: one typed, bounds-checked array per
    array argument. *)

open Lslp_ir

type arr =
  | Int_mem of int64 array
  | Float_mem of float array
  | Int32_mem of int32 array
  | Float32_mem of float array  (** values kept single-rounded *)

type t

exception Fault of string
(** Out-of-bounds access, unallocated array, or type confusion. *)

val create : unit -> t
val alloc : t -> string -> Types.scalar -> size:int -> unit
val set_int : t -> string -> int64 array -> unit
val set_float : t -> string -> float array -> unit
val set_int32 : t -> string -> int32 array -> unit
val set_float32 : t -> string -> float array -> unit
(** Values are rounded to single precision on the way in. *)

val round32 : float -> float
(** Round a double to the nearest single-precision value. *)

val find_opt : t -> string -> arr option
val read_int : t -> string -> int -> int64
val read_float : t -> string -> int -> float
val read_int32 : t -> string -> int -> int32
val read_float32 : t -> string -> int -> float
val write_int : t -> string -> int -> int64 -> unit
val write_float : t -> string -> int -> float -> unit
val write_int32 : t -> string -> int -> int32 -> unit
val write_float32 : t -> string -> int -> float -> unit

val snapshot : t -> t
(** Deep copy. *)

val arrays : t -> string list

type mismatch = {
  array_name : string;
  index : int;
  expected : string;
  actual : string;
}

val compare_memories : ?tol:float -> t -> t -> mismatch list
(** Differences between two memories.  Integers compare exactly; floats up to
    a relative tolerance (vectorization legitimately reassociates fast-math
    chains). *)

val float_close : tol:float -> float -> float -> bool
val pp_mismatch : mismatch Fmt.t
