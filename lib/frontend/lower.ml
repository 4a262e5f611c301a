(* Lowering: kernel AST -> straight-line IR.

   Responsibilities:
   - type checking (i64 vs f64, operator/operand compatibility);
   - single-assignment locals (each local is just a name for an IR value);
   - affine subscript extraction: array indices must normalize to an affine
     form over the kernel's i64 parameters, which keeps address arithmetic
     out of the use-def graph (the SCEV-style split the vectorizer needs).
     An i64 local whose definition is itself affine can appear in subscripts
     and is substituted symbolically. *)

open Lslp_ir

exception Error of string * Token.pos

let error pos fmt = Fmt.kstr (fun s -> raise (Error (s, pos))) fmt

(* What a name means at one point of the kernel.  Parameters, locals and
   the loop counter never share a name (declarations reject shadowing and
   duplicate parameters are rejected up front), so one lookup answers every
   question a use site asks. *)
type binding =
  | Unbound
  | Counter of Affine.t option
      (* the enclosing loop's counter, with its affine symbol *)
  | Scalar of Ast.ty * Instr.value * Affine.t option
      (* i64/f64 parameter, its argument and (i64 only) its symbol *)
  | Array of Ast.ty                 (* array parameter, by element type *)
  | Local of {
      l_ty : Ast.ty;
      l_value : Instr.value;
      l_affine : Affine.t option;  (* set for i64 locals with affine definitions *)
      l_block : Block.t;           (* region the defining code was emitted in *)
    }

type env = {
  builder : Builder.t;
  mutable scope : (string * binding) list;
      (* locals, newest first, in front of the parameters *)
  mutable loop : (string * binding) option;
      (* the enclosing loop's counter and its [Counter] binding *)
  mutable next_loop : int;
  mutable mask : Instr.value option;
      (* set while if-converting a branch: the i1 predicate every memory
         access in the branch must be guarded by *)
}

let rec find name = function
  | [] -> Unbound
  | (n, b) :: rest -> if String.equal n name then b else find name rest

let resolve env name =
  match env.loop with
  | Some (c, counter) when String.equal c name -> counter
  | Some _ | None -> find name env.scope

(* Affine view of an i64 expression, when one exists. *)
let rec affine_of env (e : Ast.expr) : Affine.t option =
  match e.Ast.desc with
  | Ast.Int_lit n -> Some (Affine.const (Int64.to_int n))
  | Ast.Var x -> (
    match resolve env x with
    | Counter a | Scalar (_, _, a) -> a
    | Local l -> l.l_affine
    | Array _ | Unbound -> None)
  | Ast.Bin (op, a, b) -> (
    match (affine_of env a, affine_of env b) with
    | Some fa, Some fb -> (
      match op with
      | Ast.B_add -> Some (Affine.add fa fb)
      | Ast.B_sub -> Some (Affine.sub fa fb)
      | Ast.B_mul -> Affine.mul fa fb
      | Ast.B_div | Ast.B_rem | Ast.B_and | Ast.B_or | Ast.B_xor
      | Ast.B_shl | Ast.B_shr -> None)
    | (None | Some _), _ -> None)
  | Ast.Neg a -> Option.map Affine.neg (affine_of env a)
  | Ast.Float_lit _ | Ast.Load _ | Ast.Call _ | Ast.Cmp _ -> None

(* The type check of one expression tree, raising on the first error in
   left-to-right order.  Each statement runs it once per root, before
   lowering that root, so [lower_expr] can trust every type below it.
   Array subscripts are not descended into: [subscript] checks them when the
   load is lowered. *)
let rec infer_ty env (e : Ast.expr) : Ast.ty =
  match e.Ast.desc with
  | Ast.Int_lit _ -> Ast.Ti64
  | Ast.Float_lit _ -> Ast.Tf64
  | Ast.Var x -> (
    match resolve env x with
    | Counter _ -> Ast.Ti64
    | Scalar (ty, _, _) -> ty
    | Array _ -> error e.Ast.epos "array %s used as a scalar value" x
    | Local l -> l.l_ty
    | Unbound -> error e.Ast.epos "undefined variable %s" x)
  | Ast.Load (arr, _) -> (
    match resolve env arr with
    | Array ty -> ty
    | Scalar _ -> error e.Ast.epos "%s is not an array" arr
    | Counter _ | Local _ | Unbound -> error e.Ast.epos "undefined array %s" arr)
  | Ast.Bin (op, a, b) ->
    let ta = infer_ty env a in
    let tb = infer_ty env b in
    if not (Ast.equal_ty ta tb) then
      error e.Ast.epos "operands of %s have different types (%a vs %a)"
        (Ast.binop_symbol op) Ast.pp_ty ta Ast.pp_ty tb;
    (match op with
     | Ast.B_and | Ast.B_or | Ast.B_xor | Ast.B_shl | Ast.B_shr | Ast.B_rem ->
       if not (Ast.equal_ty ta Ast.Ti64) then
         error e.Ast.epos "%s requires i64 operands" (Ast.binop_symbol op)
     | Ast.B_add | Ast.B_sub | Ast.B_mul | Ast.B_div -> ());
    ta
  | Ast.Neg a -> infer_ty env a
  | Ast.Cmp _ ->
    error e.Ast.epos
      "comparisons can only appear as an `if` condition, not as a value"
  | Ast.Call (name, args) -> (
    match name with
    | "sqrt" | "fabs" | "fmin" | "fmax" ->
      List.iter
        (fun a ->
          match infer_ty env a with
          | Ast.Tf64 -> ()
          | Ast.Ti64 -> error a.Ast.epos "%s requires f64 argument(s)" name)
        args;
      Ast.Tf64
    | "min" | "max" -> (
      match List.map (infer_ty env) args with
      | [ ta; tb ] when Ast.equal_ty ta tb -> ta
      | [ _; _ ] -> error e.Ast.epos "%s arguments must have equal types" name
      | _ -> error e.Ast.epos "%s expects 2 arguments" name)
    | _ -> error e.Ast.epos "unknown builtin %s" name)

let cmp_opcode : Ast.cmpop -> Opcode.cmp = function
  | Ast.C_lt -> Opcode.Lt
  | Ast.C_le -> Opcode.Le
  | Ast.C_gt -> Opcode.Gt
  | Ast.C_ge -> Opcode.Ge
  | Ast.C_eq -> Opcode.Eq
  | Ast.C_ne -> Opcode.Ne

let binop_opcode pos (op : Ast.binop) (ty : Ast.ty) : Opcode.binop =
  match (op, ty) with
  | Ast.B_add, Ast.Ti64 -> Opcode.Add
  | Ast.B_add, Ast.Tf64 -> Opcode.Fadd
  | Ast.B_sub, Ast.Ti64 -> Opcode.Sub
  | Ast.B_sub, Ast.Tf64 -> Opcode.Fsub
  | Ast.B_mul, Ast.Ti64 -> Opcode.Mul
  | Ast.B_mul, Ast.Tf64 -> Opcode.Fmul
  | Ast.B_div, Ast.Ti64 -> Opcode.Sdiv
  | Ast.B_div, Ast.Tf64 -> Opcode.Fdiv
  | Ast.B_rem, Ast.Ti64 -> Opcode.Srem
  | Ast.B_and, Ast.Ti64 -> Opcode.And
  | Ast.B_or, Ast.Ti64 -> Opcode.Or
  | Ast.B_xor, Ast.Ti64 -> Opcode.Xor
  | Ast.B_shl, Ast.Ti64 -> Opcode.Shl
  | Ast.B_shr, Ast.Ti64 -> Opcode.Lshr
  | (Ast.B_rem | Ast.B_and | Ast.B_or | Ast.B_xor | Ast.B_shl | Ast.B_shr),
    Ast.Tf64 ->
    error pos "integer operator applied to f64"

let subscript env arr (idx : Ast.expr) =
  (match infer_ty env idx with
   | Ast.Ti64 -> ()
   | Ast.Tf64 -> error idx.Ast.epos "array subscript must be i64");
  match affine_of env idx with
  | Some a -> a
  | None ->
    error idx.Ast.epos
      "subscript of %s is not affine in the kernel's i64 parameters" arr

(* Lower an expression [infer_ty] has already accepted at type [ty].  Every
   operator's operands share its type (min/max and the f64 builtins
   included), so [ty] is passed down instead of inferred again; the checks
   left here are the ones [infer_ty] does not make. *)
let rec lower_expr env ty (e : Ast.expr) : Instr.value =
  match e.Ast.desc with
  | Ast.Int_lit n -> Builder.iconst64 n
  | Ast.Float_lit x -> Builder.fconst x
  | Ast.Var x -> (
    match resolve env x with
    | Counter _ ->
      error e.Ast.epos
        "loop counter %s can only appear in array subscripts (and other \
         affine positions)" x
    | Local l -> (
      match l.l_value with
      | Instr.Ins _ when l.l_block != Builder.current_block env.builder ->
        error e.Ast.epos
          "local %s is defined in a different region (regions are \
           self-contained: recompute it here or pass it through memory)"
          x
      | Instr.Ins _ | Instr.Const _ | Instr.Arg _ -> l.l_value)
    | Scalar (_, v, _) -> v
    | Array _ -> error e.Ast.epos "array %s used as a scalar value" x
    | Unbound -> error e.Ast.epos "undefined variable %s" x)
  | Ast.Load (arr, idx) -> (
    let index = subscript env arr idx in
    match env.mask with
    | None -> Builder.load env.builder ~base:arr index
    | Some mask ->
      (* inside an if-converted branch the access must not happen on
         masked-off lanes (the guard may be exactly what keeps it in
         bounds); the passthrough zero feeds lanes whose results are
         discarded by the guarded stores downstream *)
      let passthrough =
        match ty with
        | Ast.Ti64 -> Builder.iconst 0
        | Ast.Tf64 -> Builder.fconst 0.0
      in
      Builder.masked_load env.builder ~base:arr index ~mask ~passthrough)
  | Ast.Cmp _ ->
    error e.Ast.epos
      "comparisons can only appear as an `if` condition, not as a value"
  | Ast.Bin (op, a, b) ->
    let va = lower_expr env ty a in
    let vb = lower_expr env ty b in
    Builder.binop env.builder (binop_opcode e.Ast.epos op ty) va vb
  | Ast.Neg a ->
    let va = lower_expr env ty a in
    let op = match ty with Ast.Ti64 -> Opcode.Neg | Ast.Tf64 -> Opcode.Fneg in
    Builder.unop env.builder op va
  | Ast.Call (name, args) -> (
    (* f64 builtins return f64, min/max their operands' type *)
    let b = env.builder in
    match (name, List.map (lower_expr env ty) args, ty) with
    | "sqrt", [ v ], _ -> Builder.unop b Opcode.Fsqrt v
    | "fabs", [ v ], _ -> Builder.unop b Opcode.Fabs v
    | ("fmin" | "min"), [ x; y ], Ast.Tf64 -> Builder.binop b Opcode.Fmin x y
    | ("fmax" | "max"), [ x; y ], Ast.Tf64 -> Builder.binop b Opcode.Fmax x y
    | "min", [ x; y ], Ast.Ti64 -> Builder.binop b Opcode.Smin x y
    | "max", [ x; y ], Ast.Ti64 -> Builder.binop b Opcode.Smax x y
    | _ -> error e.Ast.epos "unknown builtin %s" name)

(* Loop start/step must be integer literals (after constant folding); the
   bound may additionally be a single i64 parameter. *)
let loop_const env what (e : Ast.expr) =
  match Option.bind (affine_of env e) Affine.to_const with
  | Some c -> c
  | None ->
    error e.Ast.epos "loop %s must be an integer constant" what

let loop_bound env (e : Ast.expr) =
  let bad () =
    error e.Ast.epos
      "loop bound must be an integer constant or a single i64 parameter"
  in
  match affine_of env e with
  | Some a -> (
    match Affine.to_const a with
    | Some c -> Block.Bound_const c
    | None -> (
      match Affine.symbols a with
      | [ s ] when Affine.equal a (Affine.sym s) -> (
        match resolve env s with
        | Scalar (Ast.Ti64, _, _) -> Block.Bound_sym s
        | Scalar (Ast.Tf64, _, _) | Unbound | Counter _ | Array _ | Local _ ->
          bad ())
      | _ -> bad ()))
  | None -> bad ()

(* Entries a branch consed onto the shared outer scope, oldest first. *)
let branch_fresh ~outer scope =
  let rec strip l =
    if l == outer then []
    else match l with [] -> [] | x :: tl -> x :: strip tl
  in
  List.rev (strip scope)

let rec lower_stmt env (s : Ast.stmt) =
  match s.Ast.sdesc with
  | Ast.Decl (ty, name, e) ->
    (match resolve env name with
     | Local _ ->
       error s.Ast.spos "local %s is already defined (locals are \
                         single-assignment)" name
     | Scalar _ | Array _ -> error s.Ast.spos "local %s shadows a parameter" name
     | Counter _ -> error s.Ast.spos "local %s shadows the loop counter" name
     | Unbound -> ());
    let ety = infer_ty env e in
    if not (Ast.equal_ty ety ty) then
      error s.Ast.spos "local %s declared %a but initialized with %a" name
        Ast.pp_ty ty Ast.pp_ty ety;
    let l_affine =
      match ty with Ast.Ti64 -> affine_of env e | Ast.Tf64 -> None
    in
    let l_value = lower_expr env ty e in
    env.scope <-
      (name,
       Local { l_ty = ty; l_value; l_affine;
               l_block = Builder.current_block env.builder })
      :: env.scope
  | Ast.Store (arr, idx, e) -> (
    match resolve env arr with
    | Array elt_ty ->
      let ety = infer_ty env e in
      if not (Ast.equal_ty ety elt_ty) then
        error s.Ast.spos "storing %a into %a array %s" Ast.pp_ty ety
          Ast.pp_ty elt_ty arr;
      let index = subscript env arr idx in
      let v = lower_expr env elt_ty e in
      (match env.mask with
       | None -> Builder.store env.builder ~base:arr index v
       | Some mask -> Builder.masked_store env.builder ~base:arr index v ~mask)
    | Scalar _ -> error s.Ast.spos "%s is not an array" arr
    | Counter _ | Local _ | Unbound -> error s.Ast.spos "undefined array %s" arr)
  | Ast.For fl ->
    if Option.is_some env.loop then
      error s.Ast.spos "nested loops are not supported";
    if Option.is_some env.mask then
      error s.Ast.spos
        "loops cannot appear inside `if` (if-converted regions are \
         straight-line)";
    let counter = fl.Ast.f_counter in
    (match resolve env counter with
     | Scalar _ | Array _ ->
       error s.Ast.spos "loop counter %s shadows a parameter" counter
     | Local _ -> error s.Ast.spos "loop counter %s shadows a local" counter
     | Counter _ | Unbound -> ());
    let l_start = loop_const env "start" fl.Ast.f_start in
    let l_step = loop_const env "step" fl.Ast.f_step in
    if l_step < 1 then
      error s.Ast.spos "loop step must be positive, got %d" l_step;
    let l_stop = loop_bound env fl.Ast.f_bound in
    let label = "loop" ^ string_of_int env.next_loop in
    env.next_loop <- env.next_loop + 1;
    ignore
      (Builder.start_block env.builder ~label
         ~kind:(Block.Loop { Block.counter; l_start; l_stop; l_step })
         ());
    (* body locals are scoped to the loop *)
    let saved_scope = env.scope in
    env.loop <- Some (counter, Counter (Some (Affine.sym counter)));
    List.iter (lower_stmt env) fl.Ast.f_body;
    env.loop <- None;
    env.scope <- saved_scope;
    (* code after the loop falls through into a fresh straight block *)
    ignore (Builder.start_block env.builder ())
  | Ast.If ifs ->
    (* If-conversion: both branches flatten into the current straight-line
       block, every memory access guarded by an i1 mask.  The condition is
       evaluated exactly once; the else branch runs under the negated
       predicate applied to the same operand values (sound under the no-NaN
       fast-math contract — see Opcode.negate_cmp). *)
    let op, va, vb =
      match ifs.Ast.i_cond.Ast.desc with
      | Ast.Cmp (op, a, b) ->
        let ta = infer_ty env a in
        let tb = infer_ty env b in
        if not (Ast.equal_ty ta tb) then
          error ifs.Ast.i_cond.Ast.epos
            "comparison operands have different types (%a vs %a)" Ast.pp_ty
            ta Ast.pp_ty tb;
        let va = lower_expr env ta a in
        let vb = lower_expr env ta b in
        (cmp_opcode op, va, vb)
      | _ ->
        error ifs.Ast.i_cond.Ast.epos "if condition must be a comparison"
    in
    (* nested ifs compose: the branch predicate is ANDed with the enclosing
       mask, so only lanes live in *both* regions execute the branch *)
    let combine m =
      match env.mask with
      | None -> m
      | Some outer -> Builder.binop env.builder ~name:"mand" Opcode.And outer m
    in
    let outer = env.scope in
    let outer_mask = env.mask in
    let then_mask = combine (Builder.cmp env.builder op va vb) in
    env.mask <- Some then_mask;
    List.iter (lower_stmt env) ifs.Ast.i_then;
    let then_scope = env.scope in
    env.scope <- outer;
    env.mask <- outer_mask;
    let else_scope =
      match ifs.Ast.i_else with
      | [] -> outer
      | else_stmts ->
        let else_mask =
          combine (Builder.cmp env.builder (Opcode.negate_cmp op) va vb)
        in
        env.mask <- Some else_mask;
        List.iter (lower_stmt env) else_stmts;
        let l = env.scope in
        env.scope <- outer;
        env.mask <- outer_mask;
        l
    in
    (* Join: a local declared in BOTH branches keeps its name after the if,
       merged lane-wise with a select on the then-mask.  Branch-only locals
       go out of scope with their branch (their value is undefined on the
       other path). *)
    let else_fresh = branch_fresh ~outer else_scope in
    List.iter
      (fun (name, b) ->
        match (b, find name else_fresh) with
        | Local tl, Local el when Ast.equal_ty el.l_ty tl.l_ty ->
          let merged =
            Builder.select env.builder ~name:(name ^ "_m") then_mask
              tl.l_value el.l_value
          in
          env.scope <-
            (name,
             Local { l_ty = tl.l_ty; l_value = merged; l_affine = None;
                     l_block = Builder.current_block env.builder })
            :: env.scope
        | Local _, Local _ ->
          error s.Ast.spos
            "local %s is declared with different types in the two branches"
            name
        | _ -> ())
      (branch_fresh ~outer then_scope)

let arg_ty_of_param = function
  | Ast.P_i64 -> Instr.Int_arg
  | Ast.P_f64 -> Instr.Float_arg
  | Ast.P_arr Ast.Ti64 -> Instr.Array_arg Types.I64
  | Ast.P_arr Ast.Tf64 -> Instr.Array_arg Types.F64

(* Reject the first parameter whose name an earlier one already took, at
   that name's position. *)
let check_duplicate_params (params : Ast.param list) =
  ignore
    (List.fold_left
       (fun seen (p : Ast.param) ->
         if List.exists (String.equal p.Ast.pname) seen then
           error p.Ast.ppos "duplicate parameter %s" p.Ast.pname;
         p.Ast.pname :: seen)
       [] params)

let param_binding builder (p : Ast.param) =
  match p.Ast.pty with
  | Ast.P_i64 ->
    Scalar
      (Ast.Ti64, Builder.arg builder p.Ast.pname, Some (Affine.sym p.Ast.pname))
  | Ast.P_f64 -> Scalar (Ast.Tf64, Builder.arg builder p.Ast.pname, None)
  | Ast.P_arr ty -> Array ty

let lower_kernel (k : Ast.kernel) : Func.t =
  check_duplicate_params k.Ast.params;
  let builder =
    Builder.create ~value_numbering:true ~name:k.Ast.kname
      ~args:
        (List.map
           (fun (p : Ast.param) -> (p.Ast.pname, arg_ty_of_param p.Ast.pty))
           k.Ast.params) ()
  in
  let env =
    { builder;
      scope =
        List.map (fun (p : Ast.param) -> (p.Ast.pname, param_binding builder p))
          k.Ast.params;
      loop = None; next_loop = 0; mask = None }
  in
  List.iter (lower_stmt env) k.Ast.body;
  let f = Builder.func builder in
  (* drop the empty straight blocks loop lowering leaves around (e.g. an
     entry block when the kernel starts with a loop), keeping at least one *)
  let nonempty =
    List.filter
      (fun b -> Block.length b > 0 || Block.is_loop b)
      (Func.blocks f)
  in
  (match nonempty with
   | [] -> ()
   | bs -> f.Func.blocks <- bs);
  Verifier.verify_exn f;
  f

let compile_string src = lower_kernel (Parser.parse_string src)
