(* Recursive-descent parser for the kernel language.

   Expression grammar with C-like precedence, lowest to highest:

     cond:    bitor ('<'|'<='|'>'|'>='|'=='|'!=') bitor
              (comparisons appear only as `if` conditions; they are not
               general expressions, so there is no chained `a < b < c`)
     bitor:   bitxor ('|' bitxor)*
     bitxor:  bitand ('^' bitand)*
     bitand:  shift ('&' shift)*
     shift:   additive (('<<'|'>>') additive)*
     additive: term (('+'|'-') term)*
     term:    unary (('*'|'/'|'%') unary)*
     unary:   '-' unary | primary
     primary: literal | ident | ident '[' expr ']' | ident '(' args ')'
            | '(' expr ')'
*)

exception Error of string * Token.pos

let error pos fmt = Fmt.kstr (fun s -> raise (Error (s, pos))) fmt

(* The parser pulls tokens from the lexer's cursor one at a time; the
   current token is the one-token lookahead. *)
let peek = Lexer.current
let advance = Lexer.advance
let pos = Lexer.token_pos

(* Token tests compare against payload-free tokens only, so physical
   equality is exact and never calls the polymorphic compare. *)
let next_is st (tok : Token.t) = peek st == tok

let unexpected st what =
  error (pos st) "expected %s but found `%s`" what (Token.to_string (peek st))

let expect st tok what = if peek st == tok then advance st else unexpected st what

let expect_ident st what =
  match peek st with
  | Token.IDENT s -> advance st; s
  | _ -> unexpected st what

(* Binary operators by precedence level, from 1 (bitor) to 6 (term); level
   0 marks a token that is not one. *)
let binop_of_token : Token.t -> int * Ast.binop = function
  | Token.PIPE -> (1, Ast.B_or)
  | Token.CARET -> (2, Ast.B_xor)
  | Token.AMP -> (3, Ast.B_and)
  | Token.SHL -> (4, Ast.B_shl)
  | Token.SHR -> (4, Ast.B_shr)
  | Token.PLUS -> (5, Ast.B_add)
  | Token.MINUS -> (5, Ast.B_sub)
  | Token.STAR -> (6, Ast.B_mul)
  | Token.SLASH -> (6, Ast.B_div)
  | Token.PERCENT -> (6, Ast.B_rem)
  | _ -> (0, Ast.B_or)

let rec parse_expr st = parse_binary st 1

(* `if` conditions only: a single non-associative comparison. *)
and parse_cond st =
  let lhs = parse_expr st in
  let op : Ast.cmpop =
    match peek st with
    | Token.LT -> Ast.C_lt
    | Token.LE -> Ast.C_le
    | Token.GT -> Ast.C_gt
    | Token.GE -> Ast.C_ge
    | Token.EQEQ -> Ast.C_eq
    | Token.NEQ -> Ast.C_ne
    | other ->
      error (pos st)
        "an if condition must be a comparison (a < b, a == b, ...), found `%s`"
        (Token.to_string other)
  in
  advance st;
  let rhs = parse_expr st in
  { Ast.desc = Ast.Cmp (op, lhs, rhs); epos = lhs.Ast.epos }

(* Precedence climbing over the levels of [binop_of_token]: an operand,
   then every operator of level >= [min], each right operand binding only
   tighter operators.  All levels are left-associative, so this builds the
   tree of the one-rule-per-level grammar in the header. *)
and parse_binary st min = climb st min (parse_unary st)

and climb st min lhs =
  let level, op = binop_of_token (peek st) in
  if level >= min then begin
    advance st;
    let rhs = parse_binary st (level + 1) in
    climb st min { Ast.desc = Ast.Bin (op, lhs, rhs); epos = lhs.Ast.epos }
  end
  else lhs

and parse_unary st =
  match peek st with
  | Token.MINUS ->
    let epos = pos st in
    advance st;
    let e = parse_unary st in
    { Ast.desc = Ast.Neg e; epos }
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Token.INT_LIT n ->
    let epos = pos st in
    advance st;
    { Ast.desc = Ast.Int_lit n; epos }
  | Token.FLOAT_LIT x ->
    let epos = pos st in
    advance st;
    { Ast.desc = Ast.Float_lit x; epos }
  | Token.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Token.RPAREN "`)`";
    e
  | Token.IDENT name -> (
    let epos = pos st in
    advance st;
    match peek st with
    | Token.LBRACKET ->
      advance st;
      let idx = parse_expr st in
      expect st Token.RBRACKET "`]`";
      { Ast.desc = Ast.Load (name, idx); epos }
    | Token.LPAREN ->
      advance st;
      let actual = parse_args st [] in
      expect st Token.RPAREN "`)`";
      (match Ast.builtin_arity name with
       | None -> error epos "unknown builtin function %s" name
       | Some n when n <> List.length actual ->
         error epos "%s expects %d argument(s), got %d" name n
           (List.length actual)
       | Some _ -> { Ast.desc = Ast.Call (name, actual); epos })
    | _ -> { Ast.desc = Ast.Var name; epos })
  | other ->
    error (pos st) "expected an expression, found `%s`" (Token.to_string other)

and parse_args st acc =
  if next_is st Token.RPAREN then List.rev acc
  else
    let a = parse_expr st in
    if next_is st Token.COMMA then begin
      advance st;
      parse_args st (a :: acc)
    end
    else List.rev (a :: acc)

let parse_param st : Ast.param =
  let ty =
    match peek st with
    | Token.TY_I64 -> Ast.Ti64
    | Token.TY_F64 -> Ast.Tf64
    | other ->
      error (pos st) "expected parameter type, found `%s`"
        (Token.to_string other)
  in
  advance st;
  let ppos = pos st in
  let pname = expect_ident st "parameter name" in
  if next_is st Token.LBRACKET then begin
    advance st;
    expect st Token.RBRACKET "`]` of array parameter";
    { Ast.pname; pty = Ast.P_arr ty; ppos }
  end
  else
    let pty = match ty with Ast.Ti64 -> Ast.P_i64 | Ast.Tf64 -> Ast.P_f64 in
    { Ast.pname; pty; ppos }

(* the loop header's second and third mention of the counter *)
let expect_counter st counter what fmt =
  let at = pos st in
  let c = expect_ident st what in
  if not (String.equal c counter) then error at fmt c counter

let rec parse_stmt st =
  let spos = pos st in
  match peek st with
  | Token.FOR ->
    advance st;
    expect st Token.LPAREN "`(` after `for`";
    (* the counter declaration: an optional `i64` then the counter name *)
    if next_is st Token.TY_I64 then advance st;
    let counter = expect_ident st "loop counter name" in
    expect st Token.ASSIGN "`=` in loop initialization";
    let start = parse_expr st in
    expect st Token.SEMI "`;` after loop initialization";
    expect_counter st counter "loop counter in condition"
      "loop condition tests `%s` but the counter is `%s`";
    expect st Token.LT "`<` (loops are counted: counter < bound)";
    let bound = parse_expr st in
    expect st Token.SEMI "`;` after loop condition";
    expect_counter st counter "loop counter in increment"
      "loop increment updates `%s` but the counter is `%s`";
    expect st Token.PLUSEQ "`+=` (loops are counted: counter += step)";
    let step = parse_expr st in
    expect st Token.RPAREN "`)` closing the loop header";
    expect st Token.LBRACE "`{` opening the loop body";
    let body = parse_stmts st [] in
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
      spos;
    }
  | Token.IF ->
    advance st;
    expect st Token.LPAREN "`(` after `if`";
    let cond = parse_cond st in
    expect st Token.RPAREN "`)` closing the if condition";
    expect st Token.LBRACE "`{` opening the then branch";
    let then_stmts = parse_stmts st [] in
    expect st Token.RBRACE "`}` closing the then branch";
    let else_stmts =
      if next_is st Token.ELSE then begin
        advance st;
        expect st Token.LBRACE "`{` opening the else branch";
        let ss = parse_stmts st [] in
        expect st Token.RBRACE "`}` closing the else branch";
        ss
      end
      else []
    in
    {
      Ast.sdesc =
        Ast.If { Ast.i_cond = cond; i_then = then_stmts; i_else = else_stmts };
      spos;
    }
  | Token.TY_I64 -> parse_decl st spos Ast.Ti64
  | Token.TY_F64 -> parse_decl st spos Ast.Tf64
  | Token.IDENT name ->
    advance st;
    expect st Token.LBRACKET "`[` (statements are declarations or stores)";
    let idx = parse_expr st in
    expect st Token.RBRACKET "`]`";
    expect st Token.ASSIGN "`=`";
    let e = parse_expr st in
    expect st Token.SEMI "`;`";
    { Ast.sdesc = Ast.Store (name, idx, e); spos }
  | other ->
    error spos "expected a statement, found `%s`" (Token.to_string other)

and parse_decl st spos ty =
  advance st;
  let name = expect_ident st "local variable name" in
  expect st Token.ASSIGN "`=`";
  let e = parse_expr st in
  expect st Token.SEMI "`;`";
  { Ast.sdesc = Ast.Decl (ty, name, e); spos }

and parse_stmts st acc =
  if next_is st Token.RBRACE then List.rev acc
  else parse_stmts st (parse_stmt st :: acc)

let rec parse_params st acc =
  if next_is st Token.RPAREN then List.rev acc
  else
    let p = parse_param st in
    if next_is st Token.COMMA then begin
      advance st;
      parse_params st (p :: acc)
    end
    else List.rev (p :: acc)

let parse_kernel st =
  expect st Token.KERNEL "`kernel`";
  let kname = expect_ident st "kernel name" in
  expect st Token.LPAREN "`(`";
  let params = parse_params st [] in
  expect st Token.RPAREN "`)`";
  expect st Token.LBRACE "`{`";
  let body = parse_stmts st [] in
  expect st Token.RBRACE "`}`";
  { Ast.kname; params; body }

(* Lexing is lazy, but errors keep the order of lexing the whole source
   first: a syntax error is raised only once the rest of the input lexes
   cleanly, and a lexical error anywhere wins. *)
let parse src parse_all =
  let st = Lexer.create src in
  match parse_all st with
  | v -> v
  | exception (Error _ as e) ->
    Lexer.drain st;
    raise e

let parse_string src =
  parse src (fun st ->
      let k = parse_kernel st in
      (match peek st with
       | Token.EOF -> ()
       | other ->
         error (pos st) "trailing input after kernel: `%s`"
           (Token.to_string other));
      k)

let parse_program src =
  parse src (fun st ->
      let rec loop acc =
        match peek st with
        | Token.EOF -> List.rev acc
        | _ -> loop (parse_kernel st :: acc)
      in
      loop [])
