(* Types for IR values.

   The kernel language (and the SPEC kernels the paper evaluates) only use
   64-bit integers ([long]/[unsigned long]) and doubles, so the scalar type
   universe is deliberately small.  Vector types carry their lane count. *)

type scalar = I64 | F64 | I32 | F32 | I1

type t =
  | Scalar of scalar
  | Vec of scalar * int
  | Void

let i64 = Scalar I64
let f64 = Scalar F64
let i32 = Scalar I32
let f32 = Scalar F32
let i1 = Scalar I1

let of_scalar = function
  | I64 -> i64
  | F64 -> f64
  | I32 -> i32
  | F32 -> f32
  | I1 -> i1

let vec elt lanes =
  if lanes < 2 then invalid_arg "Types.vec: lane count must be >= 2";
  Vec (elt, lanes)

let scalar_of = function
  | Scalar s -> Some s
  | Vec (s, _) -> Some s
  | Void -> None

let lanes = function
  | Scalar _ -> 1
  | Vec (_, n) -> n
  | Void -> 0

let is_float_scalar = function
  | F64 | F32 -> true
  | I64 | I32 | I1 -> false

(* Masks (if-conversion predicates) are i1 lanes; no array has element type
   i1, so a mask never touches memory directly. *)
let is_mask_scalar = function
  | I1 -> true
  | I64 | F64 | I32 | F32 -> false

let is_float = function
  | Scalar s | Vec (s, _) -> is_float_scalar s
  | Void -> false

let is_vector = function
  | Vec _ -> true
  | Scalar _ | Void -> false

(* Element size in bytes; used for address arithmetic and bit-width checks. *)
let scalar_size_bytes = function
  | I64 | F64 -> 8
  | I32 | F32 -> 4
  | I1 -> 1

let widen ty n =
  match ty with
  | Scalar s -> vec s n
  | Vec _ -> invalid_arg "Types.widen: already a vector type"
  | Void -> invalid_arg "Types.widen: void"

(* Monomorphic on purpose: the verifier compares a type per operand, and
   a polymorphic [=] there is a [caml_equal] call each time. *)
let equal_scalar (a : scalar) (b : scalar) =
  match (a, b) with
  | I64, I64 | F64, F64 | I32, I32 | F32, F32 | I1, I1 -> true
  | (I64 | F64 | I32 | F32 | I1), _ -> false

let equal (a : t) (b : t) =
  match (a, b) with
  | Scalar x, Scalar y -> equal_scalar x y
  | Vec (x, n), Vec (y, m) -> n = m && equal_scalar x y
  | Void, Void -> true
  | (Scalar _ | Vec _ | Void), _ -> false

let scalar_name = function
  | I64 -> "i64"
  | F64 -> "f64"
  | I32 -> "i32"
  | F32 -> "f32"
  | I1 -> "i1"

(* The one text form of a type: [pp] and [to_string] wrap it, and the IR
   printer calls it directly. *)
let bprint buf = function
  | Scalar s -> Buffer.add_string buf (scalar_name s)
  | Vec (s, n) ->
    Buffer.add_char buf '<';
    Lslp_util.Decimal.add buf n;
    Buffer.add_string buf " x ";
    Buffer.add_string buf (scalar_name s);
    Buffer.add_char buf '>'
  | Void -> Buffer.add_string buf "void"

let to_string ty =
  let buf = Buffer.create 16 in
  bprint buf ty;
  Buffer.contents buf

let pp_scalar ppf s = Fmt.string ppf (scalar_name s)
let pp ppf ty = Fmt.string ppf (to_string ty)
