(* Reference interpreter for the IR, scalar and vector forms alike.

   Plays two roles:
   - correctness oracle: the scalar and vectorized versions of a kernel must
     leave memory in (tolerance-)equal states;
   - execution simulator: each executed instruction is charged its cost from
     a cost model, producing deterministic "cycles" whose ratios stand in
     for the paper's measured speedups (OCaml cannot execute AVX2). *)

open Lslp_ir

type scalar_value =
  | VI of int64
  | VF of float
  | VI32 of int32
  | VF32 of float  (* kept single-rounded *)
  | VB of bool     (* one i1 mask lane *)

type rvalue = S of scalar_value | V of scalar_value array

exception Trap of string

let trap fmt = Fmt.kstr (fun s -> raise (Trap s)) fmt

(* x86 masks 64-bit shift amounts to their low 6 bits (5 for 32-bit). *)
let shift_amount n = Int64.to_int (Int64.logand n 63L)
let shift_amount32 n = Int32.to_int (Int32.logand n 31l)

let int_binop (op : Opcode.binop) a b =
  match op with
  | Opcode.Add -> Int64.add a b
  | Opcode.Sub -> Int64.sub a b
  | Opcode.Mul -> Int64.mul a b
  | Opcode.Sdiv -> if Int64.equal b 0L then trap "division by zero" else Int64.div a b
  | Opcode.Srem -> if Int64.equal b 0L then trap "remainder by zero" else Int64.rem a b
  | Opcode.And -> Int64.logand a b
  | Opcode.Or -> Int64.logor a b
  | Opcode.Xor -> Int64.logxor a b
  | Opcode.Shl -> Int64.shift_left a (shift_amount b)
  | Opcode.Lshr -> Int64.shift_right_logical a (shift_amount b)
  | Opcode.Ashr -> Int64.shift_right a (shift_amount b)
  | Opcode.Smin -> if Int64.compare a b <= 0 then a else b
  | Opcode.Smax -> if Int64.compare a b >= 0 then a else b
  | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv | Opcode.Fmin
  | Opcode.Fmax -> trap "float opcode %s applied to ints" (Opcode.binop_name op)

let float_binop (op : Opcode.binop) a b =
  match op with
  | Opcode.Fadd -> a +. b
  | Opcode.Fsub -> a -. b
  | Opcode.Fmul -> a *. b
  | Opcode.Fdiv -> a /. b
  | Opcode.Fmin -> if a <= b then a else b
  | Opcode.Fmax -> if a >= b then a else b
  | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Sdiv | Opcode.Srem
  | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Shl | Opcode.Lshr
  | Opcode.Ashr | Opcode.Smin | Opcode.Smax ->
    trap "int opcode %s applied to floats" (Opcode.binop_name op)

let int32_binop (op : Opcode.binop) a b =
  match op with
  | Opcode.Add -> Int32.add a b
  | Opcode.Sub -> Int32.sub a b
  | Opcode.Mul -> Int32.mul a b
  | Opcode.Sdiv ->
    if Int32.equal b 0l then trap "division by zero" else Int32.div a b
  | Opcode.Srem ->
    if Int32.equal b 0l then trap "remainder by zero" else Int32.rem a b
  | Opcode.And -> Int32.logand a b
  | Opcode.Or -> Int32.logor a b
  | Opcode.Xor -> Int32.logxor a b
  | Opcode.Shl -> Int32.shift_left a (shift_amount32 b)
  | Opcode.Lshr -> Int32.shift_right_logical a (shift_amount32 b)
  | Opcode.Ashr -> Int32.shift_right a (shift_amount32 b)
  | Opcode.Smin -> if Int32.compare a b <= 0 then a else b
  | Opcode.Smax -> if Int32.compare a b >= 0 then a else b
  | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv | Opcode.Fmin
  | Opcode.Fmax ->
    trap "float opcode %s applied to ints" (Opcode.binop_name op)

(* Mask lanes only combine with the bitwise logical opcodes. *)
let mask_binop (op : Opcode.binop) a b =
  match op with
  | Opcode.And -> a && b
  | Opcode.Or -> a || b
  | Opcode.Xor -> a <> b
  | Opcode.Add | Opcode.Sub | Opcode.Mul | Opcode.Sdiv | Opcode.Srem
  | Opcode.Shl | Opcode.Lshr | Opcode.Ashr | Opcode.Smin | Opcode.Smax
  | Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv | Opcode.Fmin
  | Opcode.Fmax ->
    trap "opcode %s applied to i1 mask lanes" (Opcode.binop_name op)

let scalar_binop op a b =
  match (a, b) with
  | VI x, VI y -> VI (int_binop op x y)
  | VF x, VF y -> VF (float_binop op x y)
  | VI32 x, VI32 y -> VI32 (int32_binop op x y)
  | VF32 x, VF32 y -> VF32 (Memory.round32 (float_binop op x y))
  | VB x, VB y -> VB (mask_binop op x y)
  | (VI _ | VF _ | VI32 _ | VF32 _ | VB _), _ -> trap "mixed-type binop"

let scalar_cmp (op : Opcode.cmp) a b =
  let of_order c =
    match op with
    | Opcode.Lt -> c < 0
    | Opcode.Le -> c <= 0
    | Opcode.Gt -> c > 0
    | Opcode.Ge -> c >= 0
    | Opcode.Eq -> c = 0
    | Opcode.Ne -> c <> 0
  in
  match (a, b) with
  | VI x, VI y -> VB (of_order (Int64.compare x y))
  | VI32 x, VI32 y -> VB (of_order (Int32.compare x y))
  | VF x, VF y | VF32 x, VF32 y ->
    (* IEEE semantics: every ordered predicate is false on NaN *)
    VB
      (if Float.is_nan x || Float.is_nan y then
         match op with Opcode.Ne -> true | _ -> false
       else of_order (compare (x : float) y))
  | VB _, _ | _, VB _ -> trap "cmp applied to i1 mask lanes"
  | (VI _ | VF _ | VI32 _ | VF32 _), _ -> trap "mixed-type cmp"

let as_mask = function
  | VB b -> b
  | VI _ | VF _ | VI32 _ | VF32 _ -> trap "expected an i1 mask lane"

let scalar_unop (op : Opcode.unop) v =
  match (op, v) with
  | Opcode.Neg, VI x -> VI (Int64.neg x)
  | Opcode.Fneg, VF x -> VF (-.x)
  | Opcode.Fsqrt, VF x -> VF (sqrt x)
  | Opcode.Fabs, VF x -> VF (abs_float x)
  | Opcode.Neg, VI32 x -> VI32 (Int32.neg x)
  | Opcode.Fneg, VF32 x -> VF32 (-.x)
  | Opcode.Fsqrt, VF32 x -> VF32 (Memory.round32 (sqrt x))
  | Opcode.Fabs, VF32 x -> VF32 (abs_float x)
  | (Opcode.Neg | Opcode.Fneg | Opcode.Fsqrt | Opcode.Fabs), _ ->
    trap "unop type mismatch"

type stats = { mutable cycles : int; mutable executed : int }

type state = {
  func : Func.t;
  mem : Memory.t;
  int_args : (string, int64) Hashtbl.t;
  float_args : (string, float) Hashtbl.t;
  values : (int, rvalue) Hashtbl.t;       (* instr id -> computed value *)
  cost : Lslp_costmodel.Model.t;
  stats : stats;
}

let affine_env st s =
  match Hashtbl.find_opt st.int_args s with
  | Some v -> Int64.to_int v
  | None -> trap "index symbol %s has no binding" s

let eval_value st (v : Instr.value) =
  match v with
  | Instr.Const (Instr.Cint n) -> S (VI n)
  | Instr.Const (Instr.Cfloat x) -> S (VF x)
  | Instr.Const (Instr.Cint32 n) -> S (VI32 n)
  | Instr.Const (Instr.Cfloat32 x) -> S (VF32 (Memory.round32 x))
  | Instr.Arg a ->
    (match a.arg_ty with
     | Instr.Int_arg ->
       (match Hashtbl.find_opt st.int_args a.arg_name with
        | Some v -> S (VI v)
        | None -> trap "missing int argument %s" a.arg_name)
     | Instr.Float_arg ->
       (match Hashtbl.find_opt st.float_args a.arg_name with
        | Some v -> S (VF v)
        | None -> trap "missing float argument %s" a.arg_name)
     | Instr.Array_arg _ -> trap "array %s used as value" a.arg_name)
  | Instr.Ins i ->
    (match Hashtbl.find_opt st.values i.id with
     | Some v -> v
     | None -> trap "use of unevaluated instruction (bad schedule?)")

let as_scalar = function
  | S v -> v
  | V _ -> trap "expected scalar, got vector"

let as_vector = function
  | V v -> v
  | S _ -> trap "expected vector, got scalar"

let load_element st (a : Instr.address) k =
  let base_index = Affine.eval ~env:(affine_env st) a.index in
  match a.elt with
  | Types.I64 -> VI (Memory.read_int st.mem a.base (base_index + k))
  | Types.F64 -> VF (Memory.read_float st.mem a.base (base_index + k))
  | Types.I32 -> VI32 (Memory.read_int32 st.mem a.base (base_index + k))
  | Types.F32 -> VF32 (Memory.read_float32 st.mem a.base (base_index + k))
  | Types.I1 -> trap "i1 load: masks never touch memory"

let store_element st (a : Instr.address) k v =
  let base_index = Affine.eval ~env:(affine_env st) a.index in
  match (a.elt, v) with
  | Types.I64, VI x -> Memory.write_int st.mem a.base (base_index + k) x
  | Types.F64, VF x -> Memory.write_float st.mem a.base (base_index + k) x
  | Types.I32, VI32 x -> Memory.write_int32 st.mem a.base (base_index + k) x
  | Types.F32, VF32 x ->
    Memory.write_float32 st.mem a.base (base_index + k) x
  | (Types.I64 | Types.F64 | Types.I32 | Types.F32 | Types.I1), _ ->
    trap "store element type mismatch"

let exec_instr st (i : Instr.t) =
  st.stats.executed <- st.stats.executed + 1;
  st.stats.cycles <- st.stats.cycles + Lslp_costmodel.Model.instr_cost st.cost i;
  let result =
    match i.kind with
    | Instr.Binop (op, x, y) ->
      (match (eval_value st x, eval_value st y) with
       | S a, S b -> Some (S (scalar_binop op a b))
       | V a, V b ->
         if Array.length a <> Array.length b then trap "lane count mismatch";
         Some (V (Array.map2 (scalar_binop op) a b))
       | S _, V _ | V _, S _ -> trap "mixed scalar/vector binop")
    | Instr.Unop (op, x) ->
      (match eval_value st x with
       | S a -> Some (S (scalar_unop op a))
       | V a -> Some (V (Array.map (scalar_unop op) a)))
    | Instr.Load a ->
      if a.access_lanes = 1 then Some (S (load_element st a 0))
      else Some (V (Array.init a.access_lanes (load_element st a)))
    | Instr.Store (a, v) ->
      (if a.access_lanes = 1 then store_element st a 0 (as_scalar (eval_value st v))
       else begin
         let lanes = as_vector (eval_value st v) in
         if Array.length lanes <> a.access_lanes then
           trap "store lane count mismatch";
         Array.iteri (fun k sv -> store_element st a k sv) lanes
       end);
      None
    | Instr.Cmp (op, x, y) ->
      (match (eval_value st x, eval_value st y) with
       | S a, S b -> Some (S (scalar_cmp op a b))
       | V a, V b ->
         if Array.length a <> Array.length b then trap "lane count mismatch";
         Some (V (Array.map2 (scalar_cmp op) a b))
       | S _, V _ | V _, S _ -> trap "mixed scalar/vector cmp")
    | Instr.Select (m, x, y) ->
      (match (eval_value st m, eval_value st x, eval_value st y) with
       | S mv, S a, S b -> Some (S (if as_mask mv then a else b))
       | V mv, V a, V b ->
         if Array.length mv <> Array.length a
            || Array.length a <> Array.length b
         then trap "lane count mismatch";
         Some
           (V
              (Array.init (Array.length a) (fun k ->
                   if as_mask mv.(k) then a.(k) else b.(k))))
       | (S _ | V _), _, _ -> trap "mixed scalar/vector select")
    | Instr.Masked_load (a, m, p) ->
      (* a masked-off lane reads nothing at all — not even bounds-checked,
         since the guard may be exactly what keeps the access in range —
         and yields the passthrough lane instead *)
      if a.access_lanes = 1 then
        if as_mask (as_scalar (eval_value st m)) then
          Some (S (load_element st a 0))
        else Some (S (as_scalar (eval_value st p)))
      else begin
        let mask = as_vector (eval_value st m) in
        let pass = as_vector (eval_value st p) in
        if
          Array.length mask <> a.access_lanes
          || Array.length pass <> a.access_lanes
        then trap "masked load lane count mismatch";
        Some
          (V
             (Array.init a.access_lanes (fun k ->
                  if as_mask mask.(k) then load_element st a k else pass.(k))))
      end
    | Instr.Masked_store (a, v, m) ->
      (* a masked-off lane writes nothing *)
      (if a.access_lanes = 1 then begin
         let sv = as_scalar (eval_value st v) in
         if as_mask (as_scalar (eval_value st m)) then store_element st a 0 sv
       end
       else begin
         let mask = as_vector (eval_value st m) in
         let lanes = as_vector (eval_value st v) in
         if
           Array.length mask <> a.access_lanes
           || Array.length lanes <> a.access_lanes
         then trap "masked store lane count mismatch";
         Array.iteri
           (fun k sv -> if as_mask mask.(k) then store_element st a k sv)
           lanes
       end);
      None
    | Instr.Splat v ->
      let s = as_scalar (eval_value st v) in
      Some (V (Array.make (Types.lanes i.ty) s))
    | Instr.Buildvec vs ->
      Some (V (Array.of_list (List.map (fun v -> as_scalar (eval_value st v)) vs)))
    | Instr.Extract (v, lane) ->
      let lanes = as_vector (eval_value st v) in
      if lane < 0 || lane >= Array.length lanes then trap "extract lane OOB";
      Some (S lanes.(lane))
    | Instr.Reduce (op, v) ->
      let lanes = as_vector (eval_value st v) in
      if Array.length lanes = 0 then trap "reduce of empty vector";
      Some
        (S (Array.fold_left (scalar_binop op) lanes.(0)
              (Array.sub lanes 1 (Array.length lanes - 1))))
    | Instr.Shuffle (v, idx) ->
      let lanes = as_vector (eval_value st v) in
      Some
        (V (Array.of_list
              (List.map
                 (fun k ->
                   if k < 0 || k >= Array.length lanes then
                     trap "shuffle index OOB"
                   else lanes.(k))
                 idx)))
  in
  match result with
  | Some r -> Hashtbl.replace st.values i.id r
  | None -> ()

(* Straight blocks run once; loop blocks iterate their counter from
   [l_start] to the (exclusive) bound, binding the counter into the integer
   environment for the duration of each iteration so address evaluation
   sees it as just another i64 symbol.  Symbolic bounds resolve through the
   same environment.  Re-executing the body simply overwrites the previous
   iteration's values: defs precede uses within the body, so no stale value
   is ever read. *)
let exec_block st (b : Block.t) =
  match Block.kind b with
  | Block.Straight -> Block.iter (exec_instr st) b
  | Block.Loop li ->
    let stop =
      match li.Block.l_stop with
      | Block.Bound_const n -> n
      | Block.Bound_sym s ->
        (match Hashtbl.find_opt st.int_args s with
         | Some v -> Int64.to_int v
         | None -> trap "loop bound %s has no binding" s)
    in
    if li.Block.l_step <= 0 then trap "loop step must be positive";
    let saved = Hashtbl.find_opt st.int_args li.Block.counter in
    let c = ref li.Block.l_start in
    while !c < stop do
      Hashtbl.replace st.int_args li.Block.counter (Int64.of_int !c);
      Block.iter (exec_instr st) b;
      c := !c + li.Block.l_step
    done;
    (match saved with
     | Some v -> Hashtbl.replace st.int_args li.Block.counter v
     | None -> Hashtbl.remove st.int_args li.Block.counter)

let run ?(cost = Lslp_costmodel.Model.skylake_machine) (f : Func.t)
    ~(int_args : (string * int64) list)
    ~(float_args : (string * float) list) ~(mem : Memory.t) =
  let st =
    {
      func = f;
      mem;
      int_args = Hashtbl.create 8;
      float_args = Hashtbl.create 8;
      values = Hashtbl.create 64;
      cost;
      stats = { cycles = 0; executed = 0 };
    }
  in
  List.iter (fun (k, v) -> Hashtbl.replace st.int_args k v) int_args;
  List.iter (fun (k, v) -> Hashtbl.replace st.float_args k v) float_args;
  List.iter (exec_block st) (Func.blocks st.func);
  st.stats
