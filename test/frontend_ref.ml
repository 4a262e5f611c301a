(* Reference frontend for the agreement tests: the lexer, parser, lowering
   and loop unroller as they stood before the token-speed rewrite of
   [Lslp_frontend], kept verbatim in behaviour.  The lexer materialises a
   token list and slices a substring per identifier and literal, the parser
   dispatches operators through assoc tables and polymorphic compares, the
   lowering resolves names through assoc lists and re-infers the type of
   every [Bin]/[Neg] subtree, and the unroller remaps operands through a
   [Hashtbl].  The one intended difference is the duplicate-parameter
   position: this copy reports it at 0:0.  Tokens are shared with the
   library (their type did not change); the AST is this file's own. *)

open Lslp_ir
module Token = Lslp_frontend.Token

module Ast = struct
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

  type kernel = {
    kname : string;
    params : (string * param_ty) list;
    body : stmt list;
  }

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
  let builtins = [ ("sqrt", 1); ("fabs", 1); ("fmin", 2); ("fmax", 2);
                   ("min", 2); ("max", 2) ]

  let builtin_arity name = List.assoc_opt name builtins
end

module Lexer = struct
  exception Error of string * Token.pos

  let error pos fmt = Fmt.kstr (fun s -> raise (Error (s, pos))) fmt

  type state = {
    src : string;
    mutable off : int;
    mutable line : int;
    mutable col : int;
  }

  let make src = { src; off = 0; line = 1; col = 1 }

  (* The hot path works on raw chars with ['\000'] as the end-of-input
     sentinel: [peek]'s [Some c] would allocate once per character, and the
     lexer looks at every character several times.  A NUL byte in the source
     is reported as an unexpected character either way (see [next_token]). *)
  let sentinel = '\000'

  let peekc st =
    if st.off < String.length st.src then String.unsafe_get st.src st.off
    else sentinel

  let peek2c st =
    if st.off + 1 < String.length st.src then
      String.unsafe_get st.src (st.off + 1)
    else sentinel

  let at_eof st = st.off >= String.length st.src

  let advance st =
    (if not (at_eof st) then
       if String.unsafe_get st.src st.off = '\n' then begin
         st.line <- st.line + 1;
         st.col <- 1
       end
       else st.col <- st.col + 1);
    st.off <- st.off + 1

  let pos st : Token.pos = { line = st.line; col = st.col }

  let is_digit c = c >= '0' && c <= '9'
  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_ident_char c = is_ident_start c || is_digit c

  let rec skip_trivia st =
    match peekc st with
    | ' ' | '\t' | '\r' | '\n' ->
      advance st;
      skip_trivia st
    | '/' when peek2c st = '/' ->
      while (not (at_eof st)) && peekc st <> '\n' do advance st done;
      skip_trivia st
    | '/' when peek2c st = '*' ->
      let start = pos st in
      advance st;
      advance st;
      let rec loop () =
        if at_eof st then error start "unterminated block comment"
        else if peekc st = '*' && peek2c st = '/' then begin
          advance st;
          advance st
        end
        else begin
          advance st;
          loop ()
        end
      in
      loop ();
      skip_trivia st
    | _ -> ()

  let lex_number st =
    let start = pos st in
    let begin_off = st.off in
    while is_digit (peekc st) do
      advance st
    done;
    let is_float = ref false in
    (match peekc st with
     | '.' ->
       is_float := true;
       advance st;
       while is_digit (peekc st) do
         advance st
       done
     | _ -> ());
    (match peekc st with
     | 'e' | 'E' ->
       is_float := true;
       advance st;
       (match peekc st with
        | '+' | '-' -> advance st
        | _ -> ());
       while is_digit (peekc st) do
         advance st
       done
     | _ -> ());
    let text = String.sub st.src begin_off (st.off - begin_off) in
    if !is_float then
      match float_of_string_opt text with
      | Some x -> Token.FLOAT_LIT x
      | None -> error start "malformed float literal %s" text
    else
      match Int64.of_string_opt text with
      | Some n -> Token.INT_LIT n
      | None -> error start "malformed integer literal %s" text

  let lex_ident st =
    let begin_off = st.off in
    while is_ident_char (peekc st) do
      advance st
    done;
    match String.sub st.src begin_off (st.off - begin_off) with
    | "kernel" -> Token.KERNEL
    | "for" -> Token.FOR
    | "if" -> Token.IF
    | "else" -> Token.ELSE
    | "i64" -> Token.TY_I64
    | "f64" -> Token.TY_F64
    | s -> Token.IDENT s

  let next_token st : Token.spanned =
    skip_trivia st;
    let p = pos st in
    let simple tok = advance st; tok in
    let tok =
      if at_eof st then Token.EOF
      else
        match peekc st with
        | c when is_digit c -> lex_number st
        | c when is_ident_start c -> lex_ident st
        | '(' -> simple Token.LPAREN
        | ')' -> simple Token.RPAREN
        | '[' -> simple Token.LBRACKET
        | ']' -> simple Token.RBRACKET
        | '{' -> simple Token.LBRACE
        | '}' -> simple Token.RBRACE
        | ',' -> simple Token.COMMA
        | ';' -> simple Token.SEMI
        | '=' when peek2c st = '=' ->
          advance st; advance st; Token.EQEQ
        | '=' -> simple Token.ASSIGN
        | '!' when peek2c st = '=' ->
          advance st; advance st; Token.NEQ
        | '+' when peek2c st = '=' ->
          advance st; advance st; Token.PLUSEQ
        | '+' -> simple Token.PLUS
        | '-' -> simple Token.MINUS
        | '*' -> simple Token.STAR
        | '/' -> simple Token.SLASH
        | '%' -> simple Token.PERCENT
        | '&' -> simple Token.AMP
        | '|' -> simple Token.PIPE
        | '^' -> simple Token.CARET
        | '<' when peek2c st = '<' ->
          advance st; advance st; Token.SHL
        | '<' when peek2c st = '=' ->
          advance st; advance st; Token.LE
        | '<' -> simple Token.LT
        | '>' when peek2c st = '>' ->
          advance st; advance st; Token.SHR
        | '>' when peek2c st = '=' ->
          advance st; advance st; Token.GE
        | '>' -> simple Token.GT
        | c -> error p "unexpected character %C" c
    in
    { Token.tok; pos = p }

  let tokenize src =
    let st = make src in
    let rec loop acc =
      let t = next_token st in
      match t.Token.tok with
      | Token.EOF -> List.rev (t :: acc)
      | _ -> loop (t :: acc)
    in
    loop []
end

module Parser = struct
  exception Error of string * Token.pos

  let error pos fmt = Fmt.kstr (fun s -> raise (Error (s, pos))) fmt

  type state = { mutable toks : Token.spanned list }

  let peek st =
    match st.toks with
    | t :: _ -> t
    | [] -> { Token.tok = Token.EOF; pos = { line = 0; col = 0 } }

  let advance st =
    match st.toks with
    | _ :: rest -> st.toks <- rest
    | [] -> ()

  let expect st tok what =
    let t = peek st in
    if t.Token.tok = tok then advance st
    else
      error t.Token.pos "expected %s but found `%s`" what
        (Token.to_string t.Token.tok)

  let expect_ident st what =
    let t = peek st in
    match t.Token.tok with
    | Token.IDENT s ->
      advance st;
      (s, t.Token.pos)
    | other ->
      error t.Token.pos "expected %s but found `%s`" what (Token.to_string other)

  let rec parse_expr st = parse_bitor st

  (* `if` conditions only: a single non-associative comparison. *)
  and parse_cond st =
    let lhs = parse_bitor st in
    let t = peek st in
    let op =
      match t.Token.tok with
      | Token.LT -> Some Ast.C_lt
      | Token.LE -> Some Ast.C_le
      | Token.GT -> Some Ast.C_gt
      | Token.GE -> Some Ast.C_ge
      | Token.EQEQ -> Some Ast.C_eq
      | Token.NEQ -> Some Ast.C_ne
      | _ -> None
    in
    match op with
    | Some op ->
      advance st;
      let rhs = parse_bitor st in
      { Ast.desc = Ast.Cmp (op, lhs, rhs); epos = lhs.Ast.epos }
    | None ->
      error t.Token.pos
        "an if condition must be a comparison (a < b, a == b, ...), found `%s`"
        (Token.to_string t.Token.tok)

  and parse_bitor st =
    let lhs = parse_bitxor st in
    parse_left st lhs [ (Token.PIPE, Ast.B_or) ] parse_bitxor

  and parse_bitxor st =
    let lhs = parse_bitand st in
    parse_left st lhs [ (Token.CARET, Ast.B_xor) ] parse_bitand

  and parse_bitand st =
    let lhs = parse_shift st in
    parse_left st lhs [ (Token.AMP, Ast.B_and) ] parse_shift

  and parse_shift st =
    let lhs = parse_additive st in
    parse_left st lhs
      [ (Token.SHL, Ast.B_shl); (Token.SHR, Ast.B_shr) ]
      parse_additive

  and parse_additive st =
    let lhs = parse_term st in
    parse_left st lhs
      [ (Token.PLUS, Ast.B_add); (Token.MINUS, Ast.B_sub) ]
      parse_term

  and parse_term st =
    let lhs = parse_unary st in
    parse_left st lhs
      [ (Token.STAR, Ast.B_mul); (Token.SLASH, Ast.B_div);
        (Token.PERCENT, Ast.B_rem) ]
      parse_unary

  and parse_left st lhs table next =
    let t = peek st in
    match List.assoc_opt t.Token.tok table with
    | Some op ->
      advance st;
      let rhs = next st in
      parse_left st
        { Ast.desc = Ast.Bin (op, lhs, rhs); epos = lhs.Ast.epos }
        table next
    | None -> lhs

  and parse_unary st =
    let t = peek st in
    match t.Token.tok with
    | Token.MINUS ->
      advance st;
      let e = parse_unary st in
      { Ast.desc = Ast.Neg e; epos = t.Token.pos }
    | _ -> parse_primary st

  and parse_primary st =
    let t = peek st in
    match t.Token.tok with
    | Token.INT_LIT n ->
      advance st;
      { Ast.desc = Ast.Int_lit n; epos = t.Token.pos }
    | Token.FLOAT_LIT x ->
      advance st;
      { Ast.desc = Ast.Float_lit x; epos = t.Token.pos }
    | Token.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st Token.RPAREN "`)`";
      e
    | Token.IDENT name -> (
      advance st;
      match (peek st).Token.tok with
      | Token.LBRACKET ->
        advance st;
        let idx = parse_expr st in
        expect st Token.RBRACKET "`]`";
        { Ast.desc = Ast.Load (name, idx); epos = t.Token.pos }
      | Token.LPAREN ->
        advance st;
        let rec args acc =
          if (peek st).Token.tok = Token.RPAREN then List.rev acc
          else
            let a = parse_expr st in
            if (peek st).Token.tok = Token.COMMA then begin
              advance st;
              args (a :: acc)
            end
            else List.rev (a :: acc)
        in
        let actual = args [] in
        expect st Token.RPAREN "`)`";
        (match Ast.builtin_arity name with
         | None -> error t.Token.pos "unknown builtin function %s" name
         | Some n when n <> List.length actual ->
           error t.Token.pos "%s expects %d argument(s), got %d" name n
             (List.length actual)
         | Some _ ->
           { Ast.desc = Ast.Call (name, actual); epos = t.Token.pos })
      | _ -> { Ast.desc = Ast.Var name; epos = t.Token.pos })
    | other ->
      error t.Token.pos "expected an expression, found `%s`"
        (Token.to_string other)

  let parse_param st =
    let t = peek st in
    let ty =
      match t.Token.tok with
      | Token.TY_I64 -> Ast.Ti64
      | Token.TY_F64 -> Ast.Tf64
      | other ->
        error t.Token.pos "expected parameter type, found `%s`"
          (Token.to_string other)
    in
    advance st;
    let name, _ = expect_ident st "parameter name" in
    if (peek st).Token.tok = Token.LBRACKET then begin
      advance st;
      expect st Token.RBRACKET "`]` of array parameter";
      (name, Ast.P_arr ty)
    end
    else
      (name, match ty with Ast.Ti64 -> Ast.P_i64 | Ast.Tf64 -> Ast.P_f64)

  let rec parse_stmt st =
    let t = peek st in
    match t.Token.tok with
    | Token.FOR ->
      advance st;
      expect st Token.LPAREN "`(` after `for`";
      (* the counter declaration: an optional `i64` then the counter name *)
      if (peek st).Token.tok = Token.TY_I64 then advance st;
      let counter, _ = expect_ident st "loop counter name" in
      expect st Token.ASSIGN "`=` in loop initialization";
      let start = parse_expr st in
      expect st Token.SEMI "`;` after loop initialization";
      let c2, c2pos = expect_ident st "loop counter in condition" in
      if not (String.equal c2 counter) then
        error c2pos "loop condition tests `%s` but the counter is `%s`" c2
          counter;
      expect st Token.LT "`<` (loops are counted: counter < bound)";
      let bound = parse_expr st in
      expect st Token.SEMI "`;` after loop condition";
      let c3, c3pos = expect_ident st "loop counter in increment" in
      if not (String.equal c3 counter) then
        error c3pos "loop increment updates `%s` but the counter is `%s`" c3
          counter;
      expect st Token.PLUSEQ "`+=` (loops are counted: counter += step)";
      let step = parse_expr st in
      expect st Token.RPAREN "`)` closing the loop header";
      expect st Token.LBRACE "`{` opening the loop body";
      let body = parse_stmts st in
      expect st Token.RBRACE "`}` closing the loop body";
      {
        Ast.sdesc =
          Ast.For
            {
              Ast.f_counter = counter;
              f_start = start;
              f_bound = bound;
              f_step = step;
              f_body = body;
            };
        spos = t.Token.pos;
      }
    | Token.IF ->
      advance st;
      expect st Token.LPAREN "`(` after `if`";
      let cond = parse_cond st in
      expect st Token.RPAREN "`)` closing the if condition";
      expect st Token.LBRACE "`{` opening the then branch";
      let then_stmts = parse_stmts st in
      expect st Token.RBRACE "`}` closing the then branch";
      let else_stmts =
        if (peek st).Token.tok = Token.ELSE then begin
          advance st;
          expect st Token.LBRACE "`{` opening the else branch";
          let ss = parse_stmts st in
          expect st Token.RBRACE "`}` closing the else branch";
          ss
        end
        else []
      in
      {
        Ast.sdesc =
          Ast.If { Ast.i_cond = cond; i_then = then_stmts; i_else = else_stmts };
        spos = t.Token.pos;
      }
    | Token.TY_I64 | Token.TY_F64 ->
      let ty = if t.Token.tok = Token.TY_I64 then Ast.Ti64 else Ast.Tf64 in
      advance st;
      let name, _ = expect_ident st "local variable name" in
      expect st Token.ASSIGN "`=`";
      let e = parse_expr st in
      expect st Token.SEMI "`;`";
      { Ast.sdesc = Ast.Decl (ty, name, e); spos = t.Token.pos }
    | Token.IDENT name ->
      advance st;
      expect st Token.LBRACKET "`[` (statements are declarations or stores)";
      let idx = parse_expr st in
      expect st Token.RBRACKET "`]`";
      expect st Token.ASSIGN "`=`";
      let e = parse_expr st in
      expect st Token.SEMI "`;`";
      { Ast.sdesc = Ast.Store (name, idx, e); spos = t.Token.pos }
    | other ->
      error t.Token.pos "expected a statement, found `%s`"
        (Token.to_string other)

  and parse_stmts st =
    let rec loop acc =
      if (peek st).Token.tok = Token.RBRACE then List.rev acc
      else loop (parse_stmt st :: acc)
    in
    loop []

  let parse_kernel st =
    expect st Token.KERNEL "`kernel`";
    let kname, _ = expect_ident st "kernel name" in
    expect st Token.LPAREN "`(`";
    let rec params acc =
      if (peek st).Token.tok = Token.RPAREN then List.rev acc
      else
        let p = parse_param st in
        if (peek st).Token.tok = Token.COMMA then begin
          advance st;
          params (p :: acc)
        end
        else List.rev (p :: acc)
    in
    let params = params [] in
    expect st Token.RPAREN "`)`";
    expect st Token.LBRACE "`{`";
    let body = parse_stmts st in
    expect st Token.RBRACE "`}`";
    { Ast.kname; params; body }

  let parse_string src =
    let st = { toks = Lexer.tokenize src } in
    let k = parse_kernel st in
    (match (peek st).Token.tok with
     | Token.EOF -> ()
     | other ->
       error (peek st).Token.pos "trailing input after kernel: `%s`"
         (Token.to_string other));
    k

  let parse_program src =
    let st = { toks = Lexer.tokenize src } in
    let rec loop acc =
      match (peek st).Token.tok with
      | Token.EOF -> List.rev acc
      | _ -> loop (parse_kernel st :: acc)
    in
    loop []
end

module Lower = struct
  exception Error of string * Token.pos

  let error pos fmt = Fmt.kstr (fun s -> raise (Error (s, pos))) fmt

  type local = {
    l_ty : Ast.ty;
    l_value : Instr.value;
    l_affine : Affine.t option;  (* set for i64 locals with affine definitions *)
    l_block : Block.t;           (* region the defining code was emitted in *)
  }

  type env = {
    builder : Builder.t;
    params : (string * Ast.param_ty) list;
    mutable locals : (string * local) list;
    mutable counters : string list;  (* enclosing loop counters (at most one) *)
    mutable next_loop : int;
    mutable mask : Instr.value option;
        (* set while if-converting a branch: the i1 predicate every memory
           access in the branch must be guarded by *)
  }

  let lookup_local env name = List.assoc_opt name env.locals

  let lookup_param env name = List.assoc_opt name env.params

  let is_counter env name = List.mem name env.counters

  (* Affine view of an i64 expression, when one exists. *)
  let rec affine_of env (e : Ast.expr) : Affine.t option =
    match e.Ast.desc with
    | Ast.Int_lit n -> Some (Affine.const (Int64.to_int n))
    | Ast.Var x ->
      if is_counter env x then Some (Affine.sym x)
      else (
        match lookup_param env x with
        | Some Ast.P_i64 -> Some (Affine.sym x)
        | Some (Ast.P_f64 | Ast.P_arr _) -> None
        | None -> (
          match lookup_local env x with
          | Some { l_affine; _ } -> l_affine
          | None -> None))
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

  let rec infer_ty env (e : Ast.expr) : Ast.ty =
    match e.Ast.desc with
    | Ast.Int_lit _ -> Ast.Ti64
    | Ast.Float_lit _ -> Ast.Tf64
    | Ast.Var x ->
      if is_counter env x then Ast.Ti64
      else (
        match lookup_param env x with
        | Some Ast.P_i64 -> Ast.Ti64
        | Some Ast.P_f64 -> Ast.Tf64
        | Some (Ast.P_arr _) ->
          error e.Ast.epos "array %s used as a scalar value" x
        | None -> (
          match lookup_local env x with
          | Some l -> l.l_ty
          | None -> error e.Ast.epos "undefined variable %s" x))
    | Ast.Load (arr, _) -> (
      match lookup_param env arr with
      | Some (Ast.P_arr ty) -> ty
      | Some (Ast.P_i64 | Ast.P_f64) ->
        error e.Ast.epos "%s is not an array" arr
      | None -> error e.Ast.epos "undefined array %s" arr)
    | Ast.Bin (op, a, b) ->
      let ta = infer_ty env a and tb = infer_ty env b in
      if ta <> tb then
        error e.Ast.epos "operands of %s have different types (%a vs %a)"
          (Ast.binop_symbol op) Ast.pp_ty ta Ast.pp_ty tb;
      (match op with
       | Ast.B_and | Ast.B_or | Ast.B_xor | Ast.B_shl | Ast.B_shr | Ast.B_rem ->
         if ta <> Ast.Ti64 then
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
            if infer_ty env a <> Ast.Tf64 then
              error a.Ast.epos "%s requires f64 argument(s)" name)
          args;
        Ast.Tf64
      | "min" | "max" ->
        let tys = List.map (infer_ty env) args in
        (match tys with
         | [ ta; tb ] when ta = tb -> ta
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

  let rec lower_expr env (e : Ast.expr) : Instr.value =
    match e.Ast.desc with
    | Ast.Int_lit n -> Builder.iconst64 n
    | Ast.Float_lit x -> Builder.fconst x
    | Ast.Var x ->
      if is_counter env x then
        error e.Ast.epos
          "loop counter %s can only appear in array subscripts (and other \
           affine positions)" x
      else (
        match lookup_local env x with
        | Some l ->
          (match l.l_value with
           | Instr.Ins _
             when l.l_block != Builder.current_block env.builder ->
             error e.Ast.epos
               "local %s is defined in a different region (regions are \
                self-contained: recompute it here or pass it through memory)"
               x
           | Instr.Ins _ | Instr.Const _ | Instr.Arg _ -> l.l_value)
        | None -> (
          match lookup_param env x with
          | Some (Ast.P_i64 | Ast.P_f64) -> Builder.arg env.builder x
          | Some (Ast.P_arr _) ->
            error e.Ast.epos "array %s used as a scalar value" x
          | None -> error e.Ast.epos "undefined variable %s" x))
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
          match lookup_param env arr with
          | Some (Ast.P_arr Ast.Ti64) -> Builder.iconst 0
          | Some (Ast.P_arr Ast.Tf64) -> Builder.fconst 0.0
          | Some (Ast.P_i64 | Ast.P_f64) ->
            error e.Ast.epos "%s is not an array" arr
          | None -> error e.Ast.epos "undefined array %s" arr
        in
        Builder.masked_load env.builder ~base:arr index ~mask ~passthrough)
    | Ast.Cmp _ ->
      error e.Ast.epos
        "comparisons can only appear as an `if` condition, not as a value"
    | Ast.Bin (op, a, b) ->
      let ty = infer_ty env e in
      let va = lower_expr env a in
      let vb = lower_expr env b in
      Builder.binop env.builder (binop_opcode e.Ast.epos op ty) va vb
    | Ast.Neg a ->
      let ty = infer_ty env a in
      let va = lower_expr env a in
      let op = match ty with Ast.Ti64 -> Opcode.Neg | Ast.Tf64 -> Opcode.Fneg in
      Builder.unop env.builder op va
    | Ast.Call (name, args) -> (
      let vargs = List.map (lower_expr env) args in
      match (name, vargs, List.map (infer_ty env) args) with
      | "sqrt", [ v ], _ -> Builder.unop env.builder Opcode.Fsqrt v
      | "fabs", [ v ], _ -> Builder.unop env.builder Opcode.Fabs v
      | "fmin", [ a; b ], _ -> Builder.binop env.builder Opcode.Fmin a b
      | "fmax", [ a; b ], _ -> Builder.binop env.builder Opcode.Fmax a b
      | "min", [ a; b ], Ast.Ti64 :: _ -> Builder.binop env.builder Opcode.Smin a b
      | "min", [ a; b ], _ -> Builder.binop env.builder Opcode.Fmin a b
      | "max", [ a; b ], Ast.Ti64 :: _ -> Builder.binop env.builder Opcode.Smax a b
      | "max", [ a; b ], _ -> Builder.binop env.builder Opcode.Fmax a b
      | _ -> error e.Ast.epos "unknown builtin %s" name)

  (* Loop start/step must be integer literals (after constant folding); the
     bound may additionally be a single i64 parameter. *)
  let loop_const env what (e : Ast.expr) =
    match Option.bind (affine_of env e) Affine.to_const with
    | Some c -> c
    | None ->
      error e.Ast.epos "loop %s must be an integer constant" what

  let loop_bound env (e : Ast.expr) =
    match affine_of env e with
    | Some a -> (
      match Affine.to_const a with
      | Some c -> Block.Bound_const c
      | None -> (
        match Affine.symbols a with
        | [ s ] when Affine.equal a (Affine.sym s)
                     && lookup_param env s = Some Ast.P_i64 ->
          Block.Bound_sym s
        | _ ->
          error e.Ast.epos
            "loop bound must be an integer constant or a single i64 parameter"))
    | None ->
      error e.Ast.epos
        "loop bound must be an integer constant or a single i64 parameter"

  let rec lower_stmt env (s : Ast.stmt) =
    match s.Ast.sdesc with
    | Ast.Decl (ty, name, e) ->
      if Option.is_some (lookup_local env name) then
        error s.Ast.spos "local %s is already defined (locals are \
                          single-assignment)" name;
      if Option.is_some (lookup_param env name) then
        error s.Ast.spos "local %s shadows a parameter" name;
      if is_counter env name then
        error s.Ast.spos "local %s shadows the loop counter" name;
      let ety = infer_ty env e in
      if ety <> ty then
        error s.Ast.spos "local %s declared %a but initialized with %a" name
          Ast.pp_ty ty Ast.pp_ty ety;
      let l_affine =
        match ty with Ast.Ti64 -> affine_of env e | Ast.Tf64 -> None
      in
      let l_value = lower_expr env e in
      env.locals <-
        (name,
         { l_ty = ty; l_value; l_affine;
           l_block = Builder.current_block env.builder })
        :: env.locals
    | Ast.Store (arr, idx, e) -> (
      match lookup_param env arr with
      | Some (Ast.P_arr elt_ty) ->
        let ety = infer_ty env e in
        if ety <> elt_ty then
          error s.Ast.spos "storing %a into %a array %s" Ast.pp_ty ety
            Ast.pp_ty elt_ty arr;
        let index = subscript env arr idx in
        let v = lower_expr env e in
        (match env.mask with
         | None -> Builder.store env.builder ~base:arr index v
         | Some mask -> Builder.masked_store env.builder ~base:arr index v ~mask)
      | Some (Ast.P_i64 | Ast.P_f64) ->
        error s.Ast.spos "%s is not an array" arr
      | None -> error s.Ast.spos "undefined array %s" arr)
    | Ast.For fl ->
      if env.counters <> [] then
        error s.Ast.spos "nested loops are not supported";
      if env.mask <> None then
        error s.Ast.spos
          "loops cannot appear inside `if` (if-converted regions are \
           straight-line)";
      let counter = fl.Ast.f_counter in
      if Option.is_some (lookup_param env counter) then
        error s.Ast.spos "loop counter %s shadows a parameter" counter;
      if Option.is_some (lookup_local env counter) then
        error s.Ast.spos "loop counter %s shadows a local" counter;
      let l_start = loop_const env "start" fl.Ast.f_start in
      let l_step = loop_const env "step" fl.Ast.f_step in
      if l_step < 1 then
        error s.Ast.spos "loop step must be positive, got %d" l_step;
      let l_stop = loop_bound env fl.Ast.f_bound in
      let label = Fmt.str "loop%d" env.next_loop in
      env.next_loop <- env.next_loop + 1;
      ignore
        (Builder.start_block env.builder ~label
           ~kind:(Block.Loop { Block.counter; l_start; l_stop; l_step })
           ());
      (* body locals are scoped to the loop *)
      let saved_locals = env.locals in
      env.counters <- counter :: env.counters;
      List.iter (lower_stmt env) fl.Ast.f_body;
      env.counters <- List.tl env.counters;
      env.locals <- saved_locals;
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
          let ta = infer_ty env a and tb = infer_ty env b in
          if ta <> tb then
            error ifs.Ast.i_cond.Ast.epos
              "comparison operands have different types (%a vs %a)" Ast.pp_ty
              ta Ast.pp_ty tb;
          let va = lower_expr env a in
          let vb = lower_expr env b in
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
      let outer_locals = env.locals in
      let outer_mask = env.mask in
      let then_mask = combine (Builder.cmp env.builder op va vb) in
      env.mask <- Some then_mask;
      List.iter (lower_stmt env) ifs.Ast.i_then;
      let then_locals = env.locals in
      env.locals <- outer_locals;
      env.mask <- outer_mask;
      let else_locals =
        if ifs.Ast.i_else = [] then outer_locals
        else begin
          let else_mask =
            combine (Builder.cmp env.builder (Opcode.negate_cmp op) va vb)
          in
          env.mask <- Some else_mask;
          List.iter (lower_stmt env) ifs.Ast.i_else;
          let l = env.locals in
          env.locals <- outer_locals;
          env.mask <- outer_mask;
          l
        end
      in
      (* Join: a local declared in BOTH branches keeps its name after the if,
         merged lane-wise with a select on the then-mask.  Branch-only locals
         go out of scope with their branch (their value is undefined on the
         other path). *)
      let branch_fresh locs =
        (* entries the branch consed onto the shared outer tail, oldest first *)
        let rec strip l =
          if l == outer_locals then []
          else match l with [] -> [] | x :: tl -> x :: strip tl
        in
        List.rev (strip locs)
      in
      let else_fresh = branch_fresh else_locals in
      List.iter
        (fun (name, tl) ->
          match List.assoc_opt name else_fresh with
          | Some el when el.l_ty = tl.l_ty ->
            let merged =
              Builder.select env.builder ~name:(name ^ "_m") then_mask
                tl.l_value el.l_value
            in
            env.locals <-
              (name,
               { l_ty = tl.l_ty; l_value = merged; l_affine = None;
                 l_block = Builder.current_block env.builder })
              :: env.locals
          | Some _ ->
            error s.Ast.spos
              "local %s is declared with different types in the two branches"
              name
          | None -> ())
        (branch_fresh then_locals)

  let arg_ty_of_param = function
    | Ast.P_i64 -> Instr.Int_arg
    | Ast.P_f64 -> Instr.Float_arg
    | Ast.P_arr Ast.Ti64 -> Instr.Array_arg Types.I64
    | Ast.P_arr Ast.Tf64 -> Instr.Array_arg Types.F64

  let lower_kernel (k : Ast.kernel) : Func.t =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (name, _) ->
        if Hashtbl.mem seen name then
          raise (Error (Fmt.str "duplicate parameter %s" name,
                        { Token.line = 0; col = 0 }));
        Hashtbl.replace seen name ())
      k.Ast.params;
    let builder =
      Builder.create ~name:k.Ast.kname
        ~args:(List.map (fun (n, p) -> (n, arg_ty_of_param p)) k.Ast.params) ()
    in
    let env =
      { builder; params = k.Ast.params; locals = []; counters = [];
        next_loop = 0; mask = None }
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
    (* run the early-CSE a clang-like pipeline would have run before SLP *)
    ignore (Cse.run f);
    Verifier.verify_exn f;
    f

  let compile_string src = lower_kernel (Parser.parse_string src)

  let compile_program src = List.map lower_kernel (Parser.parse_program src)
end

module Unroll = struct
  (* Copy a loop body with addresses rewritten through [subst_index].
     Operand remapping only needs the body-local table: regions are
     self-contained, so every Ins operand refers to an earlier instruction of
     the same block (already copied). *)
  let clone_body ~subst_index (b : Block.t) : Instr.t list =
    let mapping = Hashtbl.create 16 in
    let remap (v : Instr.value) =
      match v with
      | Instr.Ins i ->
        (match Hashtbl.find_opt mapping i.Instr.id with
         | Some i' -> Instr.Ins i'
         | None -> v)
      | Instr.Const _ | Instr.Arg _ -> v
    in
    List.map
      (fun (i : Instr.t) ->
        let i' = Instr.copy ~ids:(Block.ids b) i in
        Hashtbl.replace mapping i.Instr.id i';
        Instr.map_operands remap i';
        Instr.map_address_index subst_index i';
        i')
      (Block.to_list b)

  let unroll_block ~factor (f : Func.t) (b : Block.t) =
    match Block.loop_info b with
    | None -> false
    | Some li -> (
      match Block.trip_count li with
      | None | Some 0 -> false
      | Some tc ->
        let counter = li.Block.counter in
        let start = li.Block.l_start and step = li.Block.l_step in
        let shift j =
          Affine.subst counter (Affine.add_const (j * step) (Affine.sym counter))
        in
        let pin m = Affine.subst counter (Affine.const (start + (m * step))) in
        if tc <= factor then begin
          (* full unroll: iteration m runs with the counter at start+m*step *)
          let flat =
            Block.create ~ids:(Block.ids b) ~label:(Block.label b ^ ".full") ()
          in
          for m = 0 to tc - 1 do
            List.iter (Block.append flat) (clone_body ~subst_index:(pin m) b)
          done;
          Func.replace_block f b [ flat ];
          true
        end
        else begin
          let main_iters = tc - (tc mod factor) in
          let main =
            Block.create ~ids:(Block.ids b)
              ~label:(Fmt.str "%s.x%d" (Block.label b) factor)
              ~kind:
                (Block.Loop
                   {
                     li with
                     Block.l_stop = Block.Bound_const (start + (main_iters * step));
                     l_step = step * factor;
                   })
              ()
          in
          for j = 0 to factor - 1 do
            List.iter (Block.append main) (clone_body ~subst_index:(shift j) b)
          done;
          let epilogue =
            if tc mod factor = 0 then []
            else begin
              let tail =
                Block.create ~ids:(Block.ids b)
                  ~label:(Block.label b ^ ".tail") ()
              in
              for m = main_iters to tc - 1 do
                List.iter (Block.append tail) (clone_body ~subst_index:(pin m) b)
              done;
              [ tail ]
            end
          in
          Func.replace_block f b (main :: epilogue);
          true
        end)

  let run ?(factor = 4) (f : Func.t) =
    if factor < 2 then 0
    else
      List.fold_left
        (fun acc b -> if unroll_block ~factor f b then acc + 1 else acc)
        0 (Func.blocks f)
end
