(* Tests for the IR verifier and printer. *)

open Lslp_ir
open Helpers

let base_func () =
  Builder.create ~name:"v"
    ~args:[ ("A", Instr.Array_arg Types.I64); ("F", Instr.Array_arg Types.F64);
            ("i", Instr.Int_arg); ("x", Instr.Float_arg) ]

let errors f = List.length (Verifier.check_func f)

let verifier_tests =
  [
    tc "accepts well-formed code" (fun () ->
        let b = base_func () in
        let v = Builder.load b ~base:"A" (Builder.idx 0) in
        let w = Builder.binop b Opcode.Add v (Builder.iconst 1) in
        Builder.store b ~base:"A" (Builder.idx 1) w;
        check_int "no errors" 0 (errors (Builder.func b)));
    tc "rejects use before def" (fun () ->
        let b = base_func () in
        let v = Builder.load b ~base:"A" (Builder.idx 0) in
        let w = Builder.binop b Opcode.Add v (Builder.iconst 1) in
        Builder.store b ~base:"A" (Builder.idx 1) w;
        let f = Builder.func b in
        Block.set_order (Func.entry f) (List.rev (Block.to_list (Func.entry f)));
        check_bool "errors" true (errors f > 0));
    tc "rejects operand type mismatch" (fun () ->
        let b = base_func () in
        let v = Builder.load b ~base:"F" (Builder.idx 0) in
        let f = Builder.func b in
        (* force an ill-typed instruction bypassing the builder *)
        let bad =
          Instr.create (Instr.Binop (Opcode.Add, v, Builder.iconst 1)) Types.i64
        in
        Block.append (Func.entry f) bad;
        check_bool "errors" true (errors f > 0));
    tc "rejects unknown array" (fun () ->
        let b = base_func () in
        let f = Builder.func b in
        let bad =
          Instr.create
            (Instr.Load
               { Instr.base = "Z"; elt = Types.I64; index = Affine.zero;
                 access_lanes = 1 })
            Types.i64
        in
        Block.append (Func.entry f) bad;
        check_bool "errors" true (errors f > 0));
    tc "rejects index symbol that is not an i64 argument" (fun () ->
        let b = base_func () in
        let f = Builder.func b in
        let bad =
          Instr.create
            (Instr.Load
               { Instr.base = "A"; elt = Types.I64; index = Affine.sym "x";
                 access_lanes = 1 })
            Types.i64
        in
        Block.append (Func.entry f) bad;
        check_bool "errors" true (errors f > 0));
    tc "rejects wrong element type for array" (fun () ->
        let b = base_func () in
        let f = Builder.func b in
        let bad =
          Instr.create
            (Instr.Load
               { Instr.base = "F"; elt = Types.I64; index = Affine.zero;
                 access_lanes = 1 })
            Types.i64
        in
        Block.append (Func.entry f) bad;
        check_bool "errors" true (errors f > 0));
    tc "rejects buildvec arity mismatch" (fun () ->
        let b = base_func () in
        let f = Builder.func b in
        let bad =
          Instr.create
            (Instr.Buildvec [ Builder.iconst 1 ])
            (Types.vec Types.I64 2)
        in
        Block.append (Func.entry f) bad;
        check_bool "errors" true (errors f > 0));
    tc "rejects extract lane out of range" (fun () ->
        let b = base_func () in
        let f = Builder.func b in
        let wide =
          Instr.create
            (Instr.Load
               { Instr.base = "A"; elt = Types.I64; index = Affine.zero;
                 access_lanes = 2 })
            (Types.vec Types.I64 2)
        in
        let bad = Instr.create (Instr.Extract (Instr.Ins wide, 5)) Types.i64 in
        Block.append (Func.entry f) wide;
        Block.append (Func.entry f) bad;
        check_bool "errors" true (errors f > 0));
    tc "rejects duplicate instruction in block" (fun () ->
        let b = base_func () in
        let v = Builder.load b ~base:"A" (Builder.idx 0) in
        let f = Builder.func b in
        (match v with
         | Instr.Ins i -> Block.append (Func.entry f) i
         | _ -> assert false);
        check_bool "errors" true (errors f > 0));
    tc "rejects store with non-void type" (fun () ->
        let b = base_func () in
        let f = Builder.func b in
        let bad =
          Instr.create
            (Instr.Store
               ({ Instr.base = "A"; elt = Types.I64; index = Affine.zero;
                  access_lanes = 1 },
                Builder.iconst 1))
            Types.i64
        in
        Block.append (Func.entry f) bad;
        check_bool "errors" true (errors f > 0));
    tc "verify_exn raises with all errors" (fun () ->
        let b = base_func () in
        let f = Builder.func b in
        let bad =
          Instr.create
            (Instr.Load
               { Instr.base = "Z"; elt = Types.I64; index = Affine.zero;
                 access_lanes = 1 })
            Types.i64
        in
        Block.append (Func.entry f) bad;
        check_bool "raises" true
          (try Verifier.verify_exn f; false with Verifier.Invalid _ -> true));
    tc "sparse instruction ids: same verdicts as dense ones" (fun () ->
        (* thousands of ids issued between the two halves of the function
           spread its id span past the bitmap's reach *)
        let b = base_func () in
        let v = Builder.load b ~base:"A" (Builder.idx 0) in
        for _ = 1 to 5000 do
          ignore (Instr.create (Instr.Unop (Opcode.Neg, v)) Types.i64)
        done;
        let w = Builder.binop b Opcode.Add v (Builder.iconst 1) in
        Builder.store b ~base:"A" (Builder.idx 1) w;
        let f = Builder.func b in
        check_int "well-formed" 0 (errors f);
        let entry = Func.entry f in
        let w_instr =
          match w with Instr.Ins i -> i | Instr.Const _ | Instr.Arg _ -> assert false
        in
        Block.append entry w_instr;
        check_bool "duplicate reported" true
          (List.exists
             (fun (e : Verifier.error) ->
               String.equal e.message "instruction appears twice in the function")
             (Verifier.check_func f));
        Block.set_order entry (List.rev (Block.to_list entry));
        check_bool "use before def reported" true (errors f > 0));
  ]

(* tiny substring helper *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.equal (String.sub haystack i nn) needle || go (i + 1))
  in
  nn = 0 || go 0

let printer_tests =
  [
    tc "scalar instruction forms" (fun () ->
        let f = compile {|
kernel p(i64 A[], i64 i) {
  A[i] = (A[i] << 2) + 1;
}
|} in
        let text = Printer.func_to_string f in
        check_bool "has load" true (contains text "load A[i]");
        check_bool "has shl" true (contains text "shl");
        check_bool "has store" true (contains text "store A[i]"));
    tc "vector forms print width" (fun () ->
        let f = kernel "motivation-loads" in
        let _, g = vectorize f in
        let text = Printer.func_to_string g in
        check_bool "wide type" true (contains text "<2 x i64>"));
    tc "labels are unique" (fun () ->
        let f = kernel "453.boy-surface" in
        let labels =
          List.map
            (fun (i : Instr.t) ->
              Printer.value_to_string (Instr.Ins i))
            (Block.to_list (Func.entry f))
        in
        check_int "unique" (List.length labels)
          (List.length (List.sort_uniq String.compare labels)));
    tc "constants print readably" (fun () ->
        check_string "int" "42"
          (Fmt.str "%a" Printer.pp_const_readable (Instr.Cint 42L));
        check_string "float" "2.5"
          (Fmt.str "%a" Printer.pp_const_readable (Instr.Cfloat 2.5)));
    tc "printer is total on ill-formed code" (fun () ->
        let bad =
          Instr.create (Instr.Buildvec []) (Types.vec Types.I64 2)
        in
        check_bool "prints" true
          (String.length (Printer.instr_to_string bad) > 0));
  ]

let suite = verifier_tests @ printer_tests
