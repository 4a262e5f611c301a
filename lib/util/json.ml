(* One JSON implementation for the whole project.

   The emitter is minified and preserves object-field order, so renderers
   ported onto it stay byte-compatible with the hand-rolled output they
   replace (the analyze --json cram goldens pin those bytes).  The reader
   is a strict recursive-descent parser that loads the bench baselines
   and checks each flight-recorder JSONL line in the tests. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- emitter ------------------------------------------------------ *)

let escape_to_buffer b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let float_to_buffer b x =
  if Float.is_nan x || x = Float.infinity || x = Float.neg_infinity then
    Buffer.add_string b "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" x)
  else Buffer.add_string b (Printf.sprintf "%.12g" x)

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float x -> float_to_buffer b x
  | Str s ->
    Buffer.add_char b '"';
    escape_to_buffer b s;
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun k x ->
        if k > 0 then Buffer.add_char b ',';
        to_buffer b x)
      xs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun k (name, x) ->
        if k > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        escape_to_buffer b name;
        Buffer.add_string b "\":";
        to_buffer b x)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  to_buffer b v;
  Buffer.contents b

(* ---- reader ------------------------------------------------------- *)

exception Parse_error of int * string

let parse_error pos fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (pos, msg))) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> parse_error st.pos "expected '%c', found '%c'" c c'
  | None -> parse_error st.pos "expected '%c', found end of input" c

let skip_ws st =
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | Some _ | None -> continue_ := false
  done

let hex_digit pos c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> parse_error pos "invalid hex digit '%c'" c

let parse_hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek st with
     | Some c -> v := (!v * 16) + hex_digit st.pos c
     | None -> parse_error st.pos "truncated \\u escape");
    advance st
  done;
  !v

(* Encode a Unicode code point as UTF-8 bytes. *)
let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string_body st =
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> parse_error st.pos "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
       | None -> parse_error st.pos "unterminated escape"
       | Some c ->
         advance st;
         (match c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
            let hi = parse_hex4 st in
            if hi >= 0xD800 && hi <= 0xDBFF then begin
              (* high surrogate: a \uDC00-\uDFFF low surrogate must follow *)
              expect st '\\';
              expect st 'u';
              let lo = parse_hex4 st in
              if lo < 0xDC00 || lo > 0xDFFF then
                parse_error st.pos "unpaired surrogate \\u%04x" hi;
              add_utf8 b
                (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
            end
            else if hi >= 0xDC00 && hi <= 0xDFFF then
              parse_error st.pos "unpaired low surrogate \\u%04x" hi
            else add_utf8 b hi
          | c -> parse_error (st.pos - 1) "invalid escape '\\%c'" c));
      go ()
    | Some c when Char.code c < 0x20 ->
      parse_error st.pos "unescaped control character 0x%02x" (Char.code c)
    | Some c ->
      advance st;
      Buffer.add_char b c;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  (match peek st with Some '-' -> advance st | _ -> ());
  let digits () =
    let n0 = st.pos in
    let continue_ = ref true in
    while !continue_ do
      match peek st with
      | Some '0' .. '9' -> advance st
      | Some _ | None -> continue_ := false
    done;
    if st.pos = n0 then parse_error st.pos "expected a digit"
  in
  digits ();
  (match peek st with
   | Some '.' ->
     is_float := true;
     advance st;
     digits ()
   | _ -> ());
  (match peek st with
   | Some ('e' | 'E') ->
     is_float := true;
     advance st;
     (match peek st with Some ('+' | '-') -> advance st | _ -> ());
     digits ()
   | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> Float (float_of_string text)

let parse_literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else parse_error st.pos "invalid literal"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> parse_error st.pos "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws st;
        expect st '"';
        let name = parse_string_body st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (name, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ()
        | Some '}' -> advance st
        | Some c -> parse_error st.pos "expected ',' or '}', found '%c'" c
        | None -> parse_error st.pos "unterminated object"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements ()
        | Some ']' -> advance st
        | Some c -> parse_error st.pos "expected ',' or ']', found '%c'" c
        | None -> parse_error st.pos "unterminated array"
      in
      elements ();
      Arr (List.rev !items)
    end
  | Some '"' ->
    advance st;
    Str (parse_string_body st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> parse_error st.pos "unexpected character '%c'" c

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos < String.length s then
      Error
        (Printf.sprintf "byte %d: trailing garbage after JSON value" st.pos)
    else Ok v
  | exception Parse_error (pos, msg) ->
    Error (Printf.sprintf "byte %d: %s" pos msg)

(* ---- accessors ---------------------------------------------------- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | Null | Bool _ | Int _ | Float _ | Str _ | Arr _ -> None

let to_int_opt = function Int n -> Some n | _ -> None
let to_list_opt = function Arr xs -> Some xs | _ -> None
