(* Instructions and values.

   Instructions have identity (a fresh [id]) and are mutable so that passes
   can rewrite operands in place; values are constants, function arguments or
   references to instructions.  Addresses pair an array symbol with an affine
   element index, which keeps address computation out of the use-def graph
   exactly the way LLVM's GEP/SCEV split does for the SLP vectorizer. *)

type const =
  | Cint of int64
  | Cfloat of float
  | Cint32 of int32
  | Cfloat32 of float  (* kept single-rounded *)

type address = {
  base : string;             (* array argument the access goes through *)
  elt : Types.scalar;        (* element type of the array *)
  index : Affine.t;          (* element index, affine in integer arguments *)
  access_lanes : int;        (* 1 = scalar access, n >= 2 = vector access *)
}

type t = {
  id : int;
  mutable kind : kind;
  mutable ty : Types.t;
  mutable name : string;     (* printing hint; not semantically meaningful *)
}

and kind =
  | Binop of Opcode.binop * value * value
  | Unop of Opcode.unop * value
  | Load of address
  | Store of address * value
  (* Predicated instructions, produced by if-conversion.  The mask is an
     ordinary i1-lane value; there is no separate predicate register file. *)
  | Cmp of Opcode.cmp * value * value        (* lanes -> i1 lanes *)
  | Select of value * value * value          (* mask, then-value, else-value *)
  | Masked_load of address * value * value   (* address, mask, passthrough *)
  | Masked_store of address * value * value  (* address, stored value, mask *)
  (* Vector-only instructions, produced by SLP/LSLP code generation: *)
  | Splat of value                  (* broadcast a scalar into all lanes *)
  | Buildvec of value list          (* gather scalars into a vector *)
  | Extract of value * int          (* extract lane [i] of a vector *)
  | Reduce of Opcode.binop * value  (* horizontal reduction of all lanes *)
  | Shuffle of value * int list     (* single-source lane permutation *)

and value = Const of const | Arg of arg | Ins of t

and arg = { arg_name : string; arg_ty : arg_ty }

and arg_ty = Int_arg | Float_arg | Array_arg of Types.scalar

(* Identity is unique within one function: every block of a function
   shares the function's id source, and nothing compares instructions of
   two functions.  The source is an explicit argument, never a global. *)
let create ~ids ?(name = "") kind ty =
  { id = Lslp_util.Id_gen.next ids; kind; ty; name }

(* The single cloning primitive: every field except the identity is carried
   over, so adding a field to [t] automatically propagates through both
   [Func.clone] and the unroller.  Operands still reference the original
   instructions; callers remap them afterwards. *)
let copy ~ids i = { i with id = Lslp_util.Id_gen.next ids }

(* Rollback primitive: reinstate a previously captured [kind].  The only
   mutable field any pass writes is [kind], so (kind, program order) is a
   complete transactional snapshot of a block. *)
let set_kind i kind = i.kind <- kind

let map_address_index f i =
  match i.kind with
  | Load a -> i.kind <- Load { a with index = f a.index }
  | Store (a, v) -> i.kind <- Store ({ a with index = f a.index }, v)
  | Masked_load (a, m, p) ->
    i.kind <- Masked_load ({ a with index = f a.index }, m, p)
  | Masked_store (a, v, m) ->
    i.kind <- Masked_store ({ a with index = f a.index }, v, m)
  | Binop _ | Unop _ | Cmp _ | Select _ | Splat _ | Buildvec _ | Extract _
  | Reduce _ | Shuffle _ -> ()

let equal a b = a.id = b.id

let const_ty = function
  | Cint _ -> Types.i64
  | Cfloat _ -> Types.f64
  | Cint32 _ -> Types.i32
  | Cfloat32 _ -> Types.f32

let arg_value_ty a =
  match a.arg_ty with
  | Int_arg -> Some Types.i64
  | Float_arg -> Some Types.f64
  | Array_arg _ -> None (* arrays are not first-class values *)

let value_ty = function
  | Const c -> Some (const_ty c)
  | Arg a -> arg_value_ty a
  | Ins i -> Some i.ty

let operands i =
  match i.kind with
  | Binop (_, a, b) | Cmp (_, a, b) -> [ a; b ]
  | Unop (_, a) | Splat a | Extract (a, _) | Reduce (_, a)
  | Shuffle (a, _) -> [ a ]
  | Load _ -> []
  | Store (_, v) -> [ v ]
  | Select (m, a, b) -> [ m; a; b ]
  | Masked_load (_, m, p) -> [ m; p ]
  | Masked_store (_, v, m) -> [ v; m ]
  | Buildvec vs -> vs

let set_operands i ops =
  match (i.kind, ops) with
  | Binop (op, _, _), [ a; b ] -> i.kind <- Binop (op, a, b)
  | Unop (op, _), [ a ] -> i.kind <- Unop (op, a)
  | Splat _, [ a ] -> i.kind <- Splat a
  | Extract (_, lane), [ a ] -> i.kind <- Extract (a, lane)
  | Reduce (op, _), [ a ] -> i.kind <- Reduce (op, a)
  | Shuffle (_, idx), [ a ] -> i.kind <- Shuffle (a, idx)
  | Load _, [] -> ()
  | Store (addr, _), [ v ] -> i.kind <- Store (addr, v)
  | Cmp (op, _, _), [ a; b ] -> i.kind <- Cmp (op, a, b)
  | Select _, [ m; a; b ] -> i.kind <- Select (m, a, b)
  | Masked_load (addr, _, _), [ m; p ] -> i.kind <- Masked_load (addr, m, p)
  | Masked_store (addr, _, _), [ v; m ] ->
    i.kind <- Masked_store (addr, v, m)
  | Buildvec old, vs when List.length old = List.length vs ->
    i.kind <- Buildvec vs
  | ( (Binop _ | Unop _ | Cmp _ | Select _ | Splat _ | Extract _ | Reduce _
      | Shuffle _ | Load _ | Store _ | Masked_load _ | Masked_store _
      | Buildvec _),
      _ ) ->
    invalid_arg "Instr.set_operands: operand count mismatch"

(* [operands] without the list: [f] sees each operand once, left to
   right. *)
let iter_operands f i =
  match i.kind with
  | Binop (_, a, b) | Cmp (_, a, b) -> f a; f b
  | Unop (_, a) | Splat a | Extract (a, _) | Reduce (_, a) | Shuffle (a, _)
  | Store (_, a) -> f a
  | Load _ -> ()
  | Select (m, a, b) -> f m; f a; f b
  | Masked_load (_, a, b) | Masked_store (_, a, b) -> f a; f b
  | Buildvec vs -> List.iter f vs

(* [f] runs once per operand, left to right (codegen emits extracts in
   call order, so the order is output), and [kind] is rebuilt only when
   some operand came back physically different. *)
let map_operands f i =
  match i.kind with
  | Binop (op, a, b) ->
    let a' = f a in
    let b' = f b in
    if a' != a || b' != b then i.kind <- Binop (op, a', b')
  | Cmp (op, a, b) ->
    let a' = f a in
    let b' = f b in
    if a' != a || b' != b then i.kind <- Cmp (op, a', b')
  | Unop (op, a) ->
    let a' = f a in
    if a' != a then i.kind <- Unop (op, a')
  | Splat a ->
    let a' = f a in
    if a' != a then i.kind <- Splat a'
  | Extract (a, lane) ->
    let a' = f a in
    if a' != a then i.kind <- Extract (a', lane)
  | Reduce (op, a) ->
    let a' = f a in
    if a' != a then i.kind <- Reduce (op, a')
  | Shuffle (a, idx) ->
    let a' = f a in
    if a' != a then i.kind <- Shuffle (a', idx)
  | Store (addr, a) ->
    let a' = f a in
    if a' != a then i.kind <- Store (addr, a')
  | Load _ -> ()
  | Select (m, a, b) ->
    let m' = f m in
    let a' = f a in
    let b' = f b in
    if m' != m || a' != a || b' != b then i.kind <- Select (m', a', b')
  | Masked_load (addr, a, b) ->
    let a' = f a in
    let b' = f b in
    if a' != a || b' != b then i.kind <- Masked_load (addr, a', b')
  | Masked_store (addr, a, b) ->
    let a' = f a in
    let b' = f b in
    if a' != a || b' != b then i.kind <- Masked_store (addr, a', b')
  | Buildvec vs ->
    let vs' = List.map f vs in
    if not (List.for_all2 ( == ) vs vs') then i.kind <- Buildvec vs'

(* A masked store is a may-write: dependence edges, DCE side-effects and
   seed collection must all treat it exactly like an unconditional store. *)
let is_store i = match i.kind with
  | Store _ | Masked_store _ -> true
  | Binop _ | Unop _ | Cmp _ | Select _ | Load _ | Masked_load _ | Splat _
  | Buildvec _ | Extract _ | Reduce _ | Shuffle _ -> false

let is_load i = match i.kind with
  | Load _ | Masked_load _ -> true
  | Binop _ | Unop _ | Cmp _ | Select _ | Store _ | Masked_store _ | Splat _
  | Buildvec _ | Extract _ | Reduce _ | Shuffle _ -> false

let is_memory_access i = is_store i || is_load i

let has_side_effect = is_store

let address i =
  match i.kind with
  | Load a | Store (a, _) | Masked_load (a, _, _) | Masked_store (a, _, _) ->
    Some a
  | Binop _ | Unop _ | Cmp _ | Select _ | Splat _ | Buildvec _ | Extract _
  | Reduce _ | Shuffle _ -> None

let binop i = match i.kind with
  | Binop (op, _, _) -> Some op
  | Unop _ | Cmp _ | Select _ | Load _ | Store _ | Masked_load _
  | Masked_store _ | Splat _ | Buildvec _ | Extract _ | Reduce _
  | Shuffle _ -> None

(* Opcode classes used by isomorphism checks: two instructions can share a
   vectorizable group iff they have the same class. *)
type opclass =
  | C_binop of Opcode.binop
  | C_unop of Opcode.unop
  | C_cmp of Opcode.cmp
  | C_select
  | C_load
  | C_store
  | C_masked_load
  | C_masked_store
  | C_splat
  | C_buildvec
  | C_extract
  | C_reduce of Opcode.binop
  | C_shuffle

let opclass i =
  match i.kind with
  | Binop (op, _, _) -> C_binop op
  | Unop (op, _) -> C_unop op
  | Cmp (op, _, _) -> C_cmp op
  | Select _ -> C_select
  | Load _ -> C_load
  | Store _ -> C_store
  | Masked_load _ -> C_masked_load
  | Masked_store _ -> C_masked_store
  | Splat _ -> C_splat
  | Buildvec _ -> C_buildvec
  | Extract _ -> C_extract
  | Reduce (op, _) -> C_reduce op
  | Shuffle _ -> C_shuffle

(* Monomorphic on purpose: a polymorphic [=] here is a [caml_equal] call
   on every isomorphism and match test of graph build. *)
let equal_opclass (a : opclass) (b : opclass) =
  match (a, b) with
  | C_binop x, C_binop y | C_reduce x, C_reduce y -> Opcode.equal_binop x y
  | C_unop x, C_unop y -> Opcode.equal_unop x y
  | C_cmp x, C_cmp y -> Opcode.equal_cmp x y
  | C_select, C_select | C_load, C_load | C_store, C_store
  | C_masked_load, C_masked_load | C_masked_store, C_masked_store
  | C_splat, C_splat | C_buildvec, C_buildvec | C_extract, C_extract
  | C_shuffle, C_shuffle -> true
  | ( ( C_binop _ | C_unop _ | C_cmp _ | C_select | C_load | C_store
      | C_masked_load | C_masked_store | C_splat | C_buildvec | C_extract
      | C_reduce _ | C_shuffle ),
      _ ) -> false

(* [equal_opclass (opclass a) (opclass b)] without building either class. *)
let same_opclass a b =
  match (a.kind, b.kind) with
  | Binop (x, _, _), Binop (y, _, _) | Reduce (x, _), Reduce (y, _) ->
    Opcode.equal_binop x y
  | Unop (x, _), Unop (y, _) -> Opcode.equal_unop x y
  | Cmp (x, _, _), Cmp (y, _, _) -> Opcode.equal_cmp x y
  | Select _, Select _ | Load _, Load _ | Store _, Store _
  | Masked_load _, Masked_load _ | Masked_store _, Masked_store _
  | Splat _, Splat _ | Buildvec _, Buildvec _ | Extract _, Extract _
  | Shuffle _, Shuffle _ -> true
  | ( ( Binop _ | Unop _ | Cmp _ | Select _ | Load _ | Store _
      | Masked_load _ | Masked_store _ | Splat _ | Buildvec _ | Extract _
      | Reduce _ | Shuffle _ ),
      _ ) -> false

let opclass_name = function
  | C_binop op -> Opcode.binop_name op
  | C_unop op -> Opcode.unop_name op
  | C_cmp op -> "cmp." ^ Opcode.cmp_name op
  | C_select -> "select"
  | C_load -> "load"
  | C_store -> "store"
  | C_masked_load -> "masked.load"
  | C_masked_store -> "masked.store"
  | C_splat -> "splat"
  | C_buildvec -> "buildvec"
  | C_extract -> "extract"
  | C_reduce op -> "reduce." ^ Opcode.binop_name op
  | C_shuffle -> "shuffle"

(* Select is NOT operand-commutative: swapping the value arms negates the
   mask.  The reorderer handles select groups via its generic same-position
   scoring instead (see graph_builder). *)
let is_commutative i =
  match i.kind with
  | Binop (op, _, _) -> Opcode.is_commutative op
  | Cmp (op, _, _) -> Opcode.cmp_is_commutative op
  | Unop _ | Select _ | Load _ | Store _ | Masked_load _ | Masked_store _
  | Splat _ | Buildvec _ | Extract _ | Reduce _ | Shuffle _ -> false

let equal_const (a : const) (b : const) =
  match (a, b) with
  | Cint x, Cint y -> Int64.equal x y
  | Cfloat x, Cfloat y ->
    (* bitwise equality so that nan = nan and -0. <> 0. — constants are
       compared for grouping, not arithmetic *)
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Cint32 x, Cint32 y -> Int32.equal x y
  | Cfloat32 x, Cfloat32 y ->
    Int32.equal (Int32.bits_of_float x) (Int32.bits_of_float y)
  | (Cint _ | Cfloat _ | Cint32 _ | Cfloat32 _), _ -> false

let equal_value (a : value) (b : value) =
  match (a, b) with
  | Const x, Const y -> equal_const x y
  | Arg x, Arg y -> String.equal x.arg_name y.arg_name
  | Ins x, Ins y -> equal x y
  | (Const _ | Arg _ | Ins _), _ -> false

let value_id = function
  | Ins i -> Some i.id
  | Const _ | Arg _ -> None
