(* Array memory for kernel execution: one typed array per array argument. *)

open Lslp_ir

type arr =
  | Int_mem of int64 array
  | Float_mem of float array
  | Int32_mem of int32 array
  | Float32_mem of float array  (* values kept single-rounded *)

type t = (string, arr) Hashtbl.t

exception Fault of string

let fault fmt = Fmt.kstr (fun s -> raise (Fault s)) fmt

let create () : t = Hashtbl.create 8

let alloc t name (elt : Types.scalar) ~size =
  let arr =
    match elt with
    | Types.I64 -> Int_mem (Array.make size 0L)
    | Types.F64 -> Float_mem (Array.make size 0.0)
    | Types.I32 -> Int32_mem (Array.make size 0l)
    | Types.F32 -> Float32_mem (Array.make size 0.0)
    | Types.I1 -> fault "i1 is not a memory element type"
  in
  Hashtbl.replace t name arr

let set_int t name values = Hashtbl.replace t name (Int_mem (Array.copy values))

let set_float t name values =
  Hashtbl.replace t name (Float_mem (Array.copy values))

(* single-precision rounding *)
let round32 x = Int32.float_of_bits (Int32.bits_of_float x)

let set_int32 t name values =
  Hashtbl.replace t name (Int32_mem (Array.copy values))

let set_float32 t name values =
  Hashtbl.replace t name (Float32_mem (Array.map round32 values))

let find_opt t name = Hashtbl.find_opt t name

let find t name =
  match Hashtbl.find_opt t name with
  | Some arr -> arr
  | None -> fault "access to unallocated array %s" name

let check_bounds name i len =
  if i < 0 || i >= len then
    fault "out-of-bounds access %s[%d] (size %d)" name i len

let read_int t name i =
  match find t name with
  | Int_mem a -> check_bounds name i (Array.length a); a.(i)
  | Float_mem _ | Int32_mem _ | Float32_mem _ ->
    fault "type confusion: %s does not hold i64" name

let read_float t name i =
  match find t name with
  | Float_mem a -> check_bounds name i (Array.length a); a.(i)
  | Int_mem _ | Int32_mem _ | Float32_mem _ ->
    fault "type confusion: %s does not hold f64" name

let read_int32 t name i =
  match find t name with
  | Int32_mem a -> check_bounds name i (Array.length a); a.(i)
  | Int_mem _ | Float_mem _ | Float32_mem _ ->
    fault "type confusion: %s does not hold i32" name

let read_float32 t name i =
  match find t name with
  | Float32_mem a -> check_bounds name i (Array.length a); a.(i)
  | Int_mem _ | Float_mem _ | Int32_mem _ ->
    fault "type confusion: %s does not hold f32" name

let write_int t name i v =
  match find t name with
  | Int_mem a -> check_bounds name i (Array.length a); a.(i) <- v
  | Float_mem _ | Int32_mem _ | Float32_mem _ ->
    fault "type confusion: %s does not hold i64" name

let write_float t name i v =
  match find t name with
  | Float_mem a -> check_bounds name i (Array.length a); a.(i) <- v
  | Int_mem _ | Int32_mem _ | Float32_mem _ ->
    fault "type confusion: %s does not hold f64" name

let write_int32 t name i v =
  match find t name with
  | Int32_mem a -> check_bounds name i (Array.length a); a.(i) <- v
  | Int_mem _ | Float_mem _ | Float32_mem _ ->
    fault "type confusion: %s does not hold i32" name

let write_float32 t name i v =
  match find t name with
  | Float32_mem a ->
    check_bounds name i (Array.length a);
    a.(i) <- round32 v
  | Int_mem _ | Float_mem _ | Int32_mem _ ->
    fault "type confusion: %s does not hold f32" name

let snapshot t : t =
  let copy = Hashtbl.create (Hashtbl.length t) in
  Hashtbl.iter
    (fun name arr ->
      let arr' =
        match arr with
        | Int_mem a -> Int_mem (Array.copy a)
        | Float_mem a -> Float_mem (Array.copy a)
        | Int32_mem a -> Int32_mem (Array.copy a)
        | Float32_mem a -> Float32_mem (Array.copy a)
      in
      Hashtbl.replace copy name arr')
    t;
  copy

let arrays t = Hashtbl.fold (fun name _ acc -> name :: acc) t []

(* Compare two memories.  Integer arrays must match exactly; float arrays up
   to a relative tolerance, because (L)SLP reassociates fast-math chains and
   so legitimately changes rounding. *)
let float_close ~tol a b =
  a = b
  || (Float.is_nan a && Float.is_nan b)
  || Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.max (abs_float a) (abs_float b))

type mismatch = {
  array_name : string;
  index : int;
  expected : string;
  actual : string;
}

let compare_memories ?(tol = 1e-9) (expected : t) (actual : t) =
  let mismatches = ref [] in
  let note array_name index exp act =
    mismatches := { array_name; index; expected = exp; actual = act }
                  :: !mismatches
  in
  Hashtbl.iter
    (fun name arr ->
      match (arr, Hashtbl.find_opt actual name) with
      | _, None -> note name (-1) "array present" "array missing"
      | Int_mem a, Some (Int_mem b) ->
        if Array.length a <> Array.length b then
          note name (-1)
            (Fmt.str "size %d" (Array.length a))
            (Fmt.str "size %d" (Array.length b))
        else
          Array.iteri
            (fun i x ->
              if not (Int64.equal x b.(i)) then
                note name i (Int64.to_string x) (Int64.to_string b.(i)))
            a
      | Float_mem a, Some (Float_mem b) ->
        if Array.length a <> Array.length b then
          note name (-1)
            (Fmt.str "size %d" (Array.length a))
            (Fmt.str "size %d" (Array.length b))
        else
          Array.iteri
            (fun i x ->
              if not (float_close ~tol x b.(i)) then
                note name i (Fmt.str "%.17g" x) (Fmt.str "%.17g" b.(i)))
            a
      | Int32_mem a, Some (Int32_mem b) ->
        if Array.length a <> Array.length b then
          note name (-1)
            (Fmt.str "size %d" (Array.length a))
            (Fmt.str "size %d" (Array.length b))
        else
          Array.iteri
            (fun i x ->
              if not (Int32.equal x b.(i)) then
                note name i (Int32.to_string x) (Int32.to_string b.(i)))
            a
      | Float32_mem a, Some (Float32_mem b) ->
        if Array.length a <> Array.length b then
          note name (-1)
            (Fmt.str "size %d" (Array.length a))
            (Fmt.str "size %d" (Array.length b))
        else
          Array.iteri
            (fun i x ->
              if not (float_close ~tol:(Float.max tol 1e-5) x b.(i)) then
                note name i (Fmt.str "%.9g" x) (Fmt.str "%.9g" b.(i)))
            a
      | (Int_mem _ | Float_mem _ | Int32_mem _ | Float32_mem _), Some _ ->
        note name (-1) "element type" "element type mismatch")
    expected;
  List.rev !mismatches

let pp_mismatch ppf m =
  Fmt.pf ppf "%s[%d]: expected %s, got %s" m.array_name m.index m.expected
    m.actual
