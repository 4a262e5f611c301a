(* Hand-rolled lexer for the kernel language.

   Supports //-line and block comments, decimal integer literals, float
   literals (which must contain '.', 'e' or 'E' to distinguish them from
   ints), identifiers and the operator/punctuation set of the language.

   The lexer is a cursor: [advance] scans one token into the state and the
   parser reads it from there, so a token costs no record and no list cell
   unless someone asks for one ([token_pos], [tokenize]).  A position is
   computed, not tracked: the column is the offset from the current line's
   first byte, and only trivia (where every newline lives) moves the line.
   Keywords are recognised in place and int literals are accumulated digit
   by digit, so only identifiers and float literals cut a substring. *)

exception Error of string * Token.pos

let error pos fmt = Fmt.kstr (fun s -> raise (Error (s, pos))) fmt

type t = {
  src : string;
  len : int;
  mutable off : int;
  mutable line : int;
  mutable line_start : int;  (* offset of the current line's first byte *)
  mutable tok : Token.t;     (* the current token *)
  mutable tok_line : int;
  mutable tok_col : int;
}

(* ['\000'] is the end-of-input sentinel.  A NUL byte in the source is
   reported as an unexpected character either way (see [scan]). *)
let sentinel = '\000'

let peekc st =
  if st.off < st.len then String.unsafe_get st.src st.off else sentinel

let peek2c st =
  if st.off + 1 < st.len then String.unsafe_get st.src (st.off + 1)
  else sentinel

let pos st : Token.pos = { line = st.line; col = st.off - st.line_start + 1 }

let token_pos st : Token.pos = { line = st.tok_line; col = st.tok_col }

(* step over a ['\n'] at the cursor *)
let newline st =
  st.off <- st.off + 1;
  st.line <- st.line + 1;
  st.line_start <- st.off

let is_digit c = c >= '0' && c <= '9'

(* first offset at or after [i] that does not continue an identifier *)
let rec ident_end src len i =
  if i >= len then i
  else
    match String.unsafe_get src i with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ident_end src len (i + 1)
    | _ -> i

let rec digits_end src len i =
  if i < len && is_digit (String.unsafe_get src i) then
    digits_end src len (i + 1)
  else i

let rec skip_block_comment st start =
  if st.off >= st.len then error start "unterminated block comment"
  else
    match String.unsafe_get st.src st.off with
    | '*' when peek2c st = '/' -> st.off <- st.off + 2
    | '\n' -> newline st; skip_block_comment st start
    | _ -> st.off <- st.off + 1; skip_block_comment st start

let rec skip_trivia st =
  match peekc st with
  | ' ' | '\t' | '\r' -> st.off <- st.off + 1; skip_trivia st
  | '\n' -> newline st; skip_trivia st
  | '/' -> (
    match peek2c st with
    | '/' ->
      while st.off < st.len && String.unsafe_get st.src st.off <> '\n' do
        st.off <- st.off + 1
      done;
      skip_trivia st
    | '*' ->
      let start = pos st in
      st.off <- st.off + 2;
      skip_block_comment st start;
      skip_trivia st
    | _ -> ())
  | _ -> ()

(* Up to 18 decimal digits fit an OCaml int; longer literals (and overflow
   reports) go through [Int64.of_string_opt] on the text. *)
let max_fast_digits = 18

let rec decimal src acc i stop =
  if i = stop then acc
  else
    decimal src ((acc * 10) + Char.code (String.unsafe_get src i) - 48) (i + 1)
      stop

let lex_number st =
  let src = st.src and len = st.len in
  let begin_off = st.off in
  let int_end = digits_end src len begin_off in
  st.off <- int_end;
  if peekc st = '.' then st.off <- digits_end src len (st.off + 1);
  (match peekc st with
   | 'e' | 'E' ->
     st.off <- st.off + 1;
     (match peekc st with '+' | '-' -> st.off <- st.off + 1 | _ -> ());
     st.off <- digits_end src len st.off
   | _ -> ());
  if st.off = int_end && int_end - begin_off <= max_fast_digits then
    Token.INT_LIT (Int64.of_int (decimal src 0 begin_off int_end))
  else
    let text = String.sub src begin_off (st.off - begin_off) in
    if st.off > int_end then
      match float_of_string_opt text with
      | Some x -> Token.FLOAT_LIT x
      | None -> error (token_pos st) "malformed float literal %s" text
    else
      match Int64.of_string_opt text with
      | Some n -> Token.INT_LIT n
      | None -> error (token_pos st) "malformed integer literal %s" text

(* [src] holds [word] at [off]; the caller has checked the length *)
let rec word_at src off word i =
  i = String.length word
  || (String.unsafe_get src (off + i) = String.unsafe_get word i
      && word_at src off word (i + 1))

let lex_ident st =
  let src = st.src in
  let begin_off = st.off in
  st.off <- ident_end src st.len begin_off;
  match st.off - begin_off with
  | 2 when word_at src begin_off "if" 0 -> Token.IF
  | 3 when word_at src begin_off "for" 0 -> Token.FOR
  | 3 when word_at src begin_off "i64" 0 -> Token.TY_I64
  | 3 when word_at src begin_off "f64" 0 -> Token.TY_F64
  | 4 when word_at src begin_off "else" 0 -> Token.ELSE
  | 6 when word_at src begin_off "kernel" 0 -> Token.KERNEL
  | n -> Token.IDENT (String.sub src begin_off n)

(* a one-char token ([w = 1]) or a two-char one *)
let take st w tok = st.off <- st.off + w; tok

(* the token whose first byte is at the cursor *)
let scan st : Token.t =
  if st.off >= st.len then Token.EOF
  else
    match String.unsafe_get st.src st.off with
    | '0' .. '9' -> lex_number st
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_ident st
    | '(' -> take st 1 Token.LPAREN
    | ')' -> take st 1 Token.RPAREN
    | '[' -> take st 1 Token.LBRACKET
    | ']' -> take st 1 Token.RBRACKET
    | '{' -> take st 1 Token.LBRACE
    | '}' -> take st 1 Token.RBRACE
    | ',' -> take st 1 Token.COMMA
    | ';' -> take st 1 Token.SEMI
    | '=' ->
      if peek2c st = '=' then take st 2 Token.EQEQ else take st 1 Token.ASSIGN
    | '!' when peek2c st = '=' -> take st 2 Token.NEQ
    | '+' ->
      if peek2c st = '=' then take st 2 Token.PLUSEQ else take st 1 Token.PLUS
    | '-' -> take st 1 Token.MINUS
    | '*' -> take st 1 Token.STAR
    | '/' -> take st 1 Token.SLASH
    | '%' -> take st 1 Token.PERCENT
    | '&' -> take st 1 Token.AMP
    | '|' -> take st 1 Token.PIPE
    | '^' -> take st 1 Token.CARET
    | '<' -> (
      match peek2c st with
      | '<' -> take st 2 Token.SHL
      | '=' -> take st 2 Token.LE
      | _ -> take st 1 Token.LT)
    | '>' -> (
      match peek2c st with
      | '>' -> take st 2 Token.SHR
      | '=' -> take st 2 Token.GE
      | _ -> take st 1 Token.GT)
    | c -> error (token_pos st) "unexpected character %C" c

let advance st =
  skip_trivia st;
  st.tok_line <- st.line;
  st.tok_col <- st.off - st.line_start + 1;
  st.tok <- scan st

let create src =
  let st =
    { src; len = String.length src; off = 0; line = 1; line_start = 0;
      tok = Token.EOF; tok_line = 1; tok_col = 1 }
  in
  advance st;
  st

let current st = st.tok

let rec drain st =
  match st.tok with
  | Token.EOF -> ()
  | _ -> advance st; drain st

let tokenize src =
  let st = create src in
  let[@tail_mod_cons] rec loop () =
    let t = { Token.tok = st.tok; pos = token_pos st } in
    match t.Token.tok with
    | Token.EOF -> [ t ]
    | _ -> advance st; t :: loop ()
  in
  loop ()
