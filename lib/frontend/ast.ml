(* Abstract syntax of the kernel language.

   A kernel is a function over i64/f64 scalars and arrays: local
   single-assignment declarations, array-element stores, and counted
   [for] loops whose body is again straight-line code.  Builtin calls
   cover the math functions the SPEC kernels need (sqrt, fabs, min/max).
   Every node carries its source position for diagnostics. *)

type ty = Ti64 | Tf64

type param_ty = P_i64 | P_f64 | P_arr of ty

type binop =
  | B_add | B_sub | B_mul | B_div | B_rem
  | B_and | B_or | B_xor
  | B_shl | B_shr

type cmpop = C_lt | C_le | C_gt | C_ge | C_eq | C_ne

type expr = { desc : expr_desc; epos : Token.pos }

and expr_desc =
  | Int_lit of int64
  | Float_lit of float
  | Var of string
  | Load of string * expr            (* array[index] *)
  | Bin of binop * expr * expr
  | Cmp of cmpop * expr * expr       (* a < b — only as an if condition *)
  | Neg of expr
  | Call of string * expr list       (* builtin: sqrt, fabs, min, max... *)

type stmt = { sdesc : stmt_desc; spos : Token.pos }

and stmt_desc =
  | Decl of ty * string * expr       (* ty name = expr; *)
  | Store of string * expr * expr    (* array[index] = expr; *)
  | For of for_loop                  (* for (i64 i = a; i < b; i += s) {..} *)
  | If of if_stmt                    (* if (cond) {..} [else {..}] *)

and if_stmt = {
  i_cond : expr;
  i_then : stmt list;
  i_else : stmt list;                (* empty when there is no else branch *)
}

and for_loop = {
  f_counter : string;
  f_start : expr;
  f_bound : expr;      (* exclusive upper bound *)
  f_step : expr;
  f_body : stmt list;
}

type param = {
  pname : string;
  pty : param_ty;
  ppos : Token.pos;    (* the name's position, for duplicate reports *)
}

type kernel = {
  kname : string;
  params : param list;
  body : stmt list;
}

let equal_ty a b =
  match (a, b) with Ti64, Ti64 | Tf64, Tf64 -> true | (Ti64 | Tf64), _ -> false

let pp_ty ppf = function
  | Ti64 -> Fmt.string ppf "i64"
  | Tf64 -> Fmt.string ppf "f64"

let binop_symbol = function
  | B_add -> "+" | B_sub -> "-" | B_mul -> "*" | B_div -> "/" | B_rem -> "%"
  | B_and -> "&" | B_or -> "|" | B_xor -> "^"
  | B_shl -> "<<" | B_shr -> ">>"

let cmpop_symbol = function
  | C_lt -> "<" | C_le -> "<=" | C_gt -> ">" | C_ge -> ">="
  | C_eq -> "==" | C_ne -> "!="

(* Builtins and their arities; the lowering maps them to IR opcodes. *)
let builtin_arity = function
  | "sqrt" | "fabs" -> Some 1
  | "fmin" | "fmax" | "min" | "max" -> Some 2
  | _ -> None
