(* Tests for the kernel-language frontend: lexer, parser, lowering. *)

open Lslp_ir
open Helpers

let lex src = List.map (fun t -> t.Lslp_frontend.Token.tok)
    (Lslp_frontend.Lexer.tokenize src)

let lexer_tests =
  let open Lslp_frontend.Token in
  [
    tc "keywords and identifiers" (fun () ->
        check_int "count" 4 (List.length (lex "kernel i64 f64 foo") - 1);
        check_bool "kernel" true (List.hd (lex "kernel") = KERNEL);
        check_bool "ident" true (List.hd (lex "kernel_x") = IDENT "kernel_x"));
    tc "integer literals" (fun () ->
        check_bool "42" true (List.hd (lex "42") = INT_LIT 42L));
    tc "float literals need . or e" (fun () ->
        check_bool "2.5" true (List.hd (lex "2.5") = FLOAT_LIT 2.5);
        check_bool "1e3" true (List.hd (lex "1e3") = FLOAT_LIT 1000.0);
        check_bool "2" true (List.hd (lex "2") = INT_LIT 2L));
    tc "operators" (fun () ->
        check_bool "shift left" true (List.hd (lex "<<") = SHL);
        check_bool "shift right" true (List.hd (lex ">>") = SHR);
        check_bool "amp" true (List.hd (lex "&") = AMP));
    tc "comments skipped" (fun () ->
        check_int "line comment" 1 (List.length (lex "// hello\n") ));
    tc "block comments skipped" (fun () ->
        check_int "block" 2 (List.length (lex "/* a\nb */ x")));
    tc "unterminated block comment errors" (fun () ->
        check_bool "raises" true
          (try ignore (lex "/* oops"); false
           with Lslp_frontend.Lexer.Error _ -> true));
    tc "unknown character errors with position" (fun () ->
        try ignore (lex "a\n  ?"); Alcotest.fail "expected error"
        with Lslp_frontend.Lexer.Error (_, pos) ->
          check_int "line" 2 pos.line;
          check_int "col" 3 pos.col);
    tc "eof token terminates stream" (fun () ->
        match List.rev (lex "x") with
        | EOF :: _ -> ()
        | _ -> Alcotest.fail "missing EOF");
  ]

let parse = Lslp_frontend.Parser.parse_string

let parser_tests =
  let open Lslp_frontend.Ast in
  [
    tc "empty kernel" (fun () ->
        let k = parse "kernel f() {}" in
        check_string "name" "f" k.kname;
        check_int "params" 0 (List.length k.params);
        check_int "body" 0 (List.length k.body));
    tc "parameter kinds" (fun () ->
        let k = parse "kernel f(i64 n, f64 x, i64 A[], f64 B[]) {}" in
        let ty name =
          (List.find (fun p -> String.equal p.pname name) k.params).pty
        in
        check_bool "n" true (ty "n" = P_i64);
        check_bool "x" true (ty "x" = P_f64);
        check_bool "A" true (ty "A" = P_arr Ti64);
        check_bool "B" true (ty "B" = P_arr Tf64));
    tc "precedence: * binds tighter than +" (fun () ->
        let k = parse "kernel f(i64 A[], i64 i) { A[i] = 1 + 2 * 3; }" in
        match (List.hd k.body).sdesc with
        | Store (_, _, { desc = Bin (B_add, _, { desc = Bin (B_mul, _, _); _ }); _ }) -> ()
        | _ -> Alcotest.fail "wrong shape");
    tc "precedence: shift binds looser than +" (fun () ->
        let k = parse "kernel f(i64 A[], i64 i) { A[i] = 1 + 2 << 3; }" in
        match (List.hd k.body).sdesc with
        | Store (_, _, { desc = Bin (B_shl, { desc = Bin (B_add, _, _); _ }, _); _ }) -> ()
        | _ -> Alcotest.fail "wrong shape");
    tc "precedence: & ^ | chain C-style" (fun () ->
        let k = parse "kernel f(i64 A[], i64 i) { A[i] = 1 | 2 ^ 3 & 4; }" in
        match (List.hd k.body).sdesc with
        | Store (_, _, { desc = Bin (B_or, _, { desc = Bin (B_xor, _, { desc = Bin (B_and, _, _); _ }); _ }); _ }) -> ()
        | _ -> Alcotest.fail "wrong shape");
    tc "left associativity of -" (fun () ->
        let k = parse "kernel f(i64 A[], i64 i) { A[i] = 1 - 2 - 3; }" in
        match (List.hd k.body).sdesc with
        | Store (_, _, { desc = Bin (B_sub, { desc = Bin (B_sub, _, _); _ }, _); _ }) -> ()
        | _ -> Alcotest.fail "wrong shape");
    tc "unary minus" (fun () ->
        let k = parse "kernel f(f64 A[], i64 i) { A[i] = -A[i]; }" in
        match (List.hd k.body).sdesc with
        | Store (_, _, { desc = Neg _; _ }) -> ()
        | _ -> Alcotest.fail "wrong shape");
    tc "builtin call arity checked" (fun () ->
        check_bool "sqrt/2 rejected" true
          (try ignore (parse "kernel f(f64 A[], i64 i) { A[i] = sqrt(1.0, 2.0); }"); false
           with Lslp_frontend.Parser.Error _ -> true));
    tc "unknown builtin rejected" (fun () ->
        check_bool "rejected" true
          (try ignore (parse "kernel f(f64 A[], i64 i) { A[i] = frob(1.0); }"); false
           with Lslp_frontend.Parser.Error _ -> true));
    tc "trailing garbage rejected" (fun () ->
        check_bool "rejected" true
          (try ignore (parse "kernel f() {} x"); false
           with Lslp_frontend.Parser.Error _ -> true));
    tc "parse_program reads several kernels" (fun () ->
        let ks =
          Lslp_frontend.Parser.parse_program "kernel a() {} kernel b() {}"
        in
        check_int "two kernels" 2 (List.length ks));
    tc "error carries position" (fun () ->
        try ignore (parse "kernel f(\n  bogus x) {}"); Alcotest.fail "no error"
        with Lslp_frontend.Parser.Error (_, pos) ->
          check_int "line" 2 pos.line);
  ]

let lower_err src =
  try
    ignore (compile src);
    None
  with Lslp_frontend.Lower.Error (msg, _) -> Some msg

let check_err what msg got = check (Alcotest.option Alcotest.string) what (Some msg) got

let lowering_tests =
  [
    tc "simple kernel lowers and verifies" (fun () ->
        let f = compile "kernel f(f64 A[], i64 i) { A[i] = A[i] * 2.0; }" in
        Verifier.verify_exn f;
        check_int "three instructions" 3 (Block.length (Func.entry f)));
    tc "locals are values, not instructions" (fun () ->
        let f = compile {|
kernel f(f64 A[], i64 i) {
  f64 x = A[i];
  A[i+1] = x;
}
|} in
        check_int "load + store" 2 (Block.length (Func.entry f)));
    tc "affine local substituted in subscripts" (fun () ->
        let f = compile {|
kernel f(f64 A[], i64 i) {
  i64 j = 2 * i + 1;
  A[j] = 1.0;
}
|} in
        let st = List.hd (Helpers.find_all Instr.is_store (Func.entry f)) in
        match Instr.address st with
        | Some a ->
          check (Alcotest.option Alcotest.int) "offset from 2i" (Some 1)
            (Affine.diff_const a.Instr.index (Affine.sym ~coeff:2 "i"))
        | None -> Alcotest.fail "no address");
    tc "type mismatch rejected" (fun () ->
        check_err "f64 + i64" "operands of + have different types (f64 vs i64)"
          (lower_err "kernel f(f64 A[], i64 i) { A[i] = A[i] + 1; }"));
    tc "integer ops on floats rejected" (fun () ->
        check_err "shift on f64 and i64"
          "operands of << have different types (f64 vs i64)"
          (lower_err "kernel f(f64 A[], i64 i) { A[i] = A[i] << 1; }");
        check_err "shift on f64" "<< requires i64 operands"
          (lower_err "kernel f(f64 A[], i64 i) { A[i] = A[i] << A[i]; }"));
    tc "non-affine subscript rejected" (fun () ->
        check_err "i*i"
          "subscript of A is not affine in the kernel's i64 parameters"
          (lower_err "kernel f(f64 A[], i64 i) { A[i*i] = 1.0; }"));
    tc "float subscript rejected" (fun () ->
        check_err "A[x]" "array subscript must be i64"
          (lower_err "kernel f(f64 A[], f64 x) { A[x] = 1.0; }"));
    tc "undefined variable rejected" (fun () ->
        check_err "y" "undefined variable y"
          (lower_err "kernel f(f64 A[], i64 i) { A[i] = y; }"));
    tc "redefined local rejected" (fun () ->
        check_err "single assignment"
          "local x is already defined (locals are single-assignment)"
          (lower_err {|
kernel f(f64 A[], i64 i) {
  f64 x = 1.0;
  f64 x = 2.0;
  A[i] = x;
}
|}));
    tc "local shadowing parameter rejected" (fun () ->
        check_err "shadow" "local i shadows a parameter"
          (lower_err "kernel f(f64 A[], i64 i) { i64 i = 1; A[i] = 1.0; }"));
    tc "array used as scalar rejected" (fun () ->
        check_err "A + 1" "array A used as a scalar value"
          (lower_err "kernel f(i64 A[], i64 i) { A[i] = A + 1; }"));
    tc "store type must match array" (fun () ->
        check_err "int into f64 array" "storing i64 into f64 array A"
          (lower_err "kernel f(f64 A[], i64 i) { A[i] = 1; }"));
    tc "builtins lower to the right opcodes" (fun () ->
        let f = compile {|
kernel f(f64 A[], i64 A2[], i64 i) {
  A[i] = sqrt(fabs(fmin(A[i], fmax(A[i+1], 1.0))));
  A2[i] = min(A2[i], max(A2[i+1], 3));
}
|} in
        let has op = count_insts (fun i -> Instr.binop i = Some op) f > 0 in
        check_bool "fmin" true (has Opcode.Fmin);
        check_bool "fmax" true (has Opcode.Fmax);
        check_bool "smin" true (has Opcode.Smin);
        check_bool "smax" true (has Opcode.Smax);
        check_int "fsqrt" 1
          (count_insts
             (fun i -> match i.Instr.kind with
                | Instr.Unop (Opcode.Fsqrt, _) -> true | _ -> false)
             f));
    tc "negation picks neg/fneg by type" (fun () ->
        let f = compile {|
kernel f(f64 A[], i64 B[], i64 i) {
  A[i] = -A[i];
  B[i] = -B[i];
}
|} in
        let has_unop op =
          count_insts
            (fun i -> match i.Instr.kind with
               | Instr.Unop (o, _) -> o = op | _ -> false)
            f > 0
        in
        check_bool "fneg" true (has_unop Opcode.Fneg);
        check_bool "neg" true (has_unop Opcode.Neg));
    tc "duplicate parameter rejected" (fun () ->
        check_err "dup" "duplicate parameter i"
          (lower_err "kernel f(i64 i, i64 i) {}"));
    tc "duplicate parameter reported at the repeated name" (fun () ->
        match compile "kernel f(f64 A[],\n  i64 i, i64 i) {}" with
        | _ -> Alcotest.fail "expected an error"
        | exception Lslp_frontend.Lower.Error (msg, pos) ->
          check_string "message" "duplicate parameter i" msg;
          check_int "line" 2 pos.Lslp_frontend.Token.line;
          check_int "col" 14 pos.Lslp_frontend.Token.col);
    tc "every catalog kernel compiles and verifies" (fun () ->
        List.iter
          (fun (k : Lslp_kernels.Catalog.kernel) ->
            let f = Lslp_kernels.Catalog.compile k in
            Verifier.verify_exn f)
          Lslp_kernels.Catalog.all);
  ]

(* ---- agreement with the reference frontend ------------------------- *)

module Ref = Frontend_ref
module Token = Lslp_frontend.Token

(* What one frontend made of one source: the function's text after
   unrolling, or the error it raised. *)
type outcome =
  | Lowered of string
  | Failed of string * string * Token.pos  (* exception, message, position *)

let no_pos = { Token.line = 0; col = 0 }

let run_new src =
  match Lslp_frontend.Lower.compile_string src with
  | f ->
    ignore (Lslp_frontend.Unroll.run ~factor:4 f);
    Lowered (Printer.func_to_string f)
  | exception Lslp_frontend.Lexer.Error (m, p) -> Failed ("Lexer.Error", m, p)
  | exception Lslp_frontend.Parser.Error (m, p) -> Failed ("Parser.Error", m, p)
  | exception Lslp_frontend.Lower.Error (m, p) -> Failed ("Lower.Error", m, p)
  | exception e -> Failed ("other", Printexc.to_string e, no_pos)

let run_ref src =
  match Ref.Lower.compile_string src with
  | f ->
    ignore (Ref.Unroll.run ~factor:4 f);
    Lowered (Printer.func_to_string f)
  | exception Ref.Lexer.Error (m, p) -> Failed ("Lexer.Error", m, p)
  | exception Ref.Parser.Error (m, p) -> Failed ("Parser.Error", m, p)
  | exception Ref.Lower.Error (m, p) -> Failed ("Lower.Error", m, p)
  | exception e -> Failed ("other", Printexc.to_string e, no_pos)

let show = function
  | Lowered text -> text
  | Failed (e, m, p) -> Fmt.str "%s at %a: %s" e Token.pp_pos p m

(* Equal outcomes, except that the reference reports a duplicate parameter
   at 0:0 and the frontend at the repeated name. *)
let agree r n =
  match (r, n) with
  | Failed ("Lower.Error", mr, pr), Failed ("Lower.Error", mn, pn)
    when String.equal mr mn
         && String.starts_with ~prefix:"duplicate parameter " mr ->
    pr = no_pos && pn <> no_pos
  | _ -> r = n

let check_agrees what src =
  let r = run_ref src and n = run_new src in
  if not (agree r n) then
    Alcotest.failf "%s: frontends disagree on@.%s@.reference:@.%s@.frontend:@.%s"
      what src (show r) (show n)

(* The two lexers also agree token by token (the list interface is kept). *)
let check_tokens_agree what src =
  let lex tokenize err =
    match tokenize src with
    | toks ->
      Ok (List.map (fun (t : Token.spanned) -> (t.Token.tok, t.Token.pos)) toks)
    | exception e -> Error (err e)
  in
  let r =
    lex Ref.Lexer.tokenize (function
      | Ref.Lexer.Error (m, p) -> (m, p)
      | e -> raise e)
  and n =
    lex Lslp_frontend.Lexer.tokenize (function
      | Lslp_frontend.Lexer.Error (m, p) -> (m, p)
      | e -> raise e)
  in
  if r <> n then Alcotest.failf "%s: token streams disagree on@.%s" what src

(* Byte spans and tokens of a source that lexes cleanly, from the
   reference lexer. *)
let token_spans src =
  let line_starts =
    let acc = ref [ 0 ] in
    String.iteri (fun i c -> if c = '\n' then acc := (i + 1) :: !acc) src;
    Array.of_list (List.rev !acc)
  in
  let st = Ref.Lexer.make src in
  let rec loop acc =
    let t = Ref.Lexer.next_token st in
    match t.Token.tok with
    | Token.EOF -> Array.of_list (List.rev acc)
    | tok ->
      let start = line_starts.(t.Token.pos.line - 1) + t.Token.pos.col - 1 in
      loop ((start, st.Ref.Lexer.off, tok) :: acc)
  in
  loop []

let splice src start stop repl =
  String.sub src 0 start ^ repl
  ^ String.sub src stop (String.length src - stop)

let literal_swaps =
  [| "0"; "1"; "3"; "2.5"; "0.0"; "1e3"; "1e"; "7."; "123456789012345678";
     "1234567890123456789"; "9223372036854775807"; "9223372036854775808";
     "99999999999999999999" |]

let stray_chars = [| "?"; "!"; "#"; "/*"; "=="; "+="; "\n"; "."; "@" |]

(* Seeded mutants of one source: token deletions, duplications and swaps,
   renamed identifiers, changed literals and stray characters. *)
let mutants ~seed src =
  let rng = Random.State.make [| seed |] in
  let spans = token_spans src in
  let n = Array.length spans in
  let text k = let s, e, _ = spans.(k) in String.sub src s (e - s) in
  let pick_where p =
    let ks = List.filter (fun k -> let _, _, t = spans.(k) in p t) (List.init n Fun.id) in
    match ks with
    | [] -> None
    | _ -> Some (List.nth ks (Random.State.int rng (List.length ks)))
  in
  let idents =
    Array.of_list
      ("zz" :: "sqrt" :: "for"
       :: List.filter_map
            (fun (_, _, t) -> match t with Token.IDENT s -> Some s | _ -> None)
            (Array.to_list spans))
  in
  let one kind =
    let k = Random.State.int rng n in
    let s, e, _ = spans.(k) in
    match kind with
    | 0 -> Some (splice src s e "")
    | 1 -> Some (splice src e e (" " ^ text k))
    | 2 when k + 1 < n ->
      let s2, e2, _ = spans.(k + 1) in
      Some
        (String.sub src 0 s ^ text (k + 1)
         ^ String.sub src e (s2 - e)
         ^ text k
         ^ String.sub src e2 (String.length src - e2))
    | 3 -> (
      match pick_where (function Token.IDENT _ -> true | _ -> false) with
      | Some k ->
        let s, e, _ = spans.(k) in
        Some (splice src s e idents.(Random.State.int rng (Array.length idents)))
      | None -> None)
    | 4 -> (
      match
        pick_where (function Token.INT_LIT _ | Token.FLOAT_LIT _ -> true | _ -> false)
      with
      | Some k ->
        let s, e, _ = spans.(k) in
        Some
          (splice src s e
             literal_swaps.(Random.State.int rng (Array.length literal_swaps)))
      | None -> None)
    | _ ->
      Some (splice src s s stray_chars.(Random.State.int rng (Array.length stray_chars)))
  in
  List.concat_map
    (fun kind -> List.filter_map (fun _ -> one kind) [ 1; 2; 3; 4 ])
    [ 0; 1; 2; 3; 4; 5 ]

let example_sources () =
  let dir = "../examples/kernels" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".k")
  |> List.sort String.compare
  |> List.map (fun f ->
         let ic = open_in_bin (Filename.concat dir f) in
         let src = really_input_string ic (in_channel_length ic) in
         close_in ic;
         (f, src))

let agreement_sources () =
  List.map
    (fun (k : Lslp_kernels.Catalog.kernel) -> (k.Lslp_kernels.Catalog.key, k.source))
    Lslp_kernels.Catalog.all
  @ example_sources ()

let corner_cases =
  [ "kernel f() {} ?"; "kernel f( { ?"; "kernel f() {} x ?";
    "kernel f() { /* open"; "kernel f(f64 A[], i64 i) { A[i] = 1e; }";
    "kernel f(i64 A[], i64 i) { A[i] = 99999999999999999999; }";
    "kernel f(i64 A[], i64 i) { A[i] = 999999999999999999; }";
    "kernel f(i64 A[], i64 i) { A[i] = 007; }";
    "kernel f(f64 A[], i64 i) { A[i] = 1.5e+3 + 2.E-1; }";
    "kernel f(i64 A[], i64 i) {\r\n\tA[i] = 1 // c\n; }";
    "kernel f(i64 A[], i64 i) { A[i] = 1 \000 }";
    "kernel f(f64 A[], i64 i) { for (i64 k = 0; k < 4; k += 1) { A[k] = sqrt(A[k]); } }";
    "kernel f(f64 A[], i64 i) { for (k = 0; j < 4; k += 1) { A[k] = 1.0; } }";
    "kernel f(f64 A[], i64 i) { if (A[i] < 1.0) { f64 x = 1.0; A[i] = x; } else { f64 x = 2; A[i] = x; } }";
    "kernel f(i64 A[], i64 n, i64 i) { i64 c = i + y; for (i64 k = 0; k < n; k += 1) { A[k] = c + k; } }";
    "kernel f(i64 A[], i64 i) { A[i] = min(i, 1.0) + max(1, 2); }";
    "kernel f(f64 A[], i64 i, i64 i, f64 A[]) { A[i] = 1.0; }";
    "kernel f(f64 A[], i64 i) { A[i] = fmin(A[i], 1) * sqrt(2); }";
    "kernel a() {} kernel b() {}";
    "kernel f(i64 A[], i64 i) { A[i] = 1 << 2 + 3 * 4 - 5 >> 1 & 7 | 8 ^ 9 % 2; }";
    "kernel f(i64 A[], i64 i) { A[i] = 1 | 2 & 3 ^ 4 - -5 * 6 / 7 << 8; }";
    "kernel f(i64 A[], i64 i) { A[i] = (1 | 2) & (3 ^ 4) - (5 << 1); }" ]

let agreement_tests =
  [
    tc "reference agreement: catalog and example kernels" (fun () ->
        let sources = agreement_sources () in
        check_bool "examples found" true (List.length sources > List.length Lslp_kernels.Catalog.all);
        List.iter
          (fun (name, src) ->
            check_tokens_agree name src;
            check_agrees name src)
          sources);
    tc "reference agreement: seeded mutants" (fun () ->
        let failures = ref 0 in
        List.iteri
          (fun i (name, src) ->
            List.iteri
              (fun j m ->
                let what = Fmt.str "%s mutant %d" name j in
                check_tokens_agree what m;
                check_agrees what m;
                match run_new m with Failed _ -> incr failures | Lowered _ -> ())
              (mutants ~seed:(1000 + i) src))
          (agreement_sources ());
        (* the mutants reach the error paths, not only clean compiles *)
        check_bool "some mutants fail" true (!failures > 100));
    tc "reference agreement: corner cases" (fun () ->
        List.iter
          (fun src -> check_tokens_agree src src; check_agrees src src)
          corner_cases);
  ]

(* ---- value numbering in the builder -------------------------------- *)

(* The frontend builds with value numbering instead of running [Cse.run]
   afterwards (the reference frontend still does, so [agreement_tests]
   already compare the two).  What numbering leaves, the pass would not
   touch: no duplicate survives the build. *)
let numbering_tests =
  let lowered src =
    match Lslp_frontend.Lower.compile_string src with
    | f -> Some f
    | exception (Lslp_frontend.Lexer.Error _ | Lslp_frontend.Parser.Error _
                | Lslp_frontend.Lower.Error _) -> None
  in
  [
    tc "numbered lowering leaves Cse.run nothing to remove" (fun () ->
        let sources =
          agreement_sources ()
          @ List.concat
              (List.mapi
                 (fun i (name, src) ->
                   List.mapi
                     (fun j m -> (Fmt.str "%s mutant %d" name j, m))
                     (mutants ~seed:(1000 + i) src))
                 (agreement_sources ()))
          @ List.map (fun src -> (src, src)) corner_cases
        in
        let lowered_count = ref 0 in
        List.iter
          (fun (name, src) ->
            match lowered src with
            | None -> ()
            | Some f ->
              incr lowered_count;
              check_int (name ^ ": removed") 0 (Cse.run f))
          sources;
        check_bool "most sources lower" true
          (!lowered_count > List.length (agreement_sources ())));
    tc "numbered fuzz programs leave Cse.run nothing to remove" (fun () ->
        for seed = 0 to 199 do
          let st = Random.State.make [| seed; 0xc5e |] in
          let p = Lslp_fuzz.Gen.generate ~cond_only:(seed mod 4 = 0) st in
          check_int (Lslp_fuzz.Gen.describe p) 0
            (Cse.run (Lslp_fuzz.Gen.build p))
        done);
  ]

let suite =
  lexer_tests @ parser_tests @ lowering_tests @ agreement_tests
  @ numbering_tests
