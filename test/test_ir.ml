(* Tests for the IR core: types, opcodes, instructions, blocks, use info,
   DCE and CSE. *)

open Lslp_ir
open Helpers

let types_tests =
  [
    tc "lanes" (fun () ->
        check_int "scalar" 1 (Types.lanes Types.i64);
        check_int "vec" 4 (Types.lanes (Types.vec Types.F64 4));
        check_int "void" 0 (Types.lanes Types.Void));
    tc "vec rejects lane count < 2" (fun () ->
        Alcotest.check_raises "lanes=1" (Invalid_argument
          "Types.vec: lane count must be >= 2") (fun () ->
            ignore (Types.vec Types.I64 1)));
    tc "widen" (fun () ->
        check_bool "i64 -> <2 x i64>" true
          (Types.equal (Types.widen Types.i64 2) (Types.vec Types.I64 2)));
    tc "is_float" (fun () ->
        check_bool "f64" true (Types.is_float Types.f64);
        check_bool "vec f64" true (Types.is_float (Types.vec Types.F64 2));
        check_bool "i64" false (Types.is_float Types.i64));
    tc "printing" (fun () ->
        check_string "i64" "i64" (Types.to_string Types.i64);
        check_string "vec" "<4 x f64>" (Types.to_string (Types.vec Types.F64 4));
        check_string "void" "void" (Types.to_string Types.Void));
  ]

let opcode_tests =
  [
    tc "commutative set" (fun () ->
        let commutative =
          List.filter Opcode.is_commutative Opcode.all_binops
        in
        check_int "count" 11 (List.length commutative);
        check_bool "sub not commutative" false (Opcode.is_commutative Opcode.Sub);
        check_bool "fdiv not commutative" false
          (Opcode.is_commutative Opcode.Fdiv);
        check_bool "xor commutative" true (Opcode.is_commutative Opcode.Xor));
    tc "commutative implies associative here" (fun () ->
        List.iter
          (fun op ->
            if Opcode.is_commutative op then
              check_bool (Opcode.binop_name op) true (Opcode.is_associative op))
          Opcode.all_binops);
    tc "float classification" (fun () ->
        check_bool "fadd" true (Opcode.binop_is_float Opcode.Fadd);
        check_bool "add" false (Opcode.binop_is_float Opcode.Add);
        check_bool "fsqrt" true (Opcode.unop_is_float Opcode.Fsqrt));
    tc "operand scalar type" (fun () ->
        check_bool "shl on i64" true
          (Types.equal_scalar (Opcode.binop_operand_scalar Opcode.Shl) Types.I64);
        check_bool "fmin on f64" true
          (Types.equal_scalar (Opcode.binop_operand_scalar Opcode.Fmin) Types.F64));
    tc "names unique" (fun () ->
        let names = List.map Opcode.binop_name Opcode.all_binops in
        check_int "no duplicates" (List.length names)
          (List.length (List.sort_uniq String.compare names)));
  ]

(* the id source of the free-standing instructions and blocks below *)
let ids = Lslp_util.Id_gen.create ~first:1 ()

let mk_load base k =
  Instr.create ~ids ~name:"ld"
    (Instr.Load
       { Instr.base; elt = Types.I64;
         index = Affine.add_const k (Affine.sym "i"); access_lanes = 1 })
    Types.i64

let instr_tests =
  [
    tc "fresh ids distinct" (fun () ->
        let a = mk_load "A" 0 and b = mk_load "A" 0 in
        check_bool "ids differ" false (Instr.equal a b));
    tc "operands of binop" (fun () ->
        let a = mk_load "A" 0 in
        let add =
          Instr.create ~ids (Instr.Binop (Opcode.Add, Instr.Ins a, Builder.iconst 1))
            Types.i64
        in
        check_int "arity" 2 (List.length (Instr.operands add)));
    tc "set_operands replaces" (fun () ->
        let a = mk_load "A" 0 and b = mk_load "B" 0 in
        let add =
          Instr.create ~ids (Instr.Binop (Opcode.Add, Instr.Ins a, Instr.Ins a))
            Types.i64
        in
        Instr.set_operands add [ Instr.Ins b; Instr.Ins b ];
        check_bool "first operand replaced" true
          (Instr.equal_value (List.hd (Instr.operands add)) (Instr.Ins b)));
    tc "set_operands arity mismatch raises" (fun () ->
        let a = mk_load "A" 0 in
        let add =
          Instr.create ~ids (Instr.Binop (Opcode.Add, Instr.Ins a, Instr.Ins a))
            Types.i64
        in
        check_bool "raises" true
          (try Instr.set_operands add [ Instr.Ins a ]; false
           with Invalid_argument _ -> true));
    tc "opclass distinguishes opcodes" (fun () ->
        let a = mk_load "A" 0 in
        let add = Instr.create ~ids (Instr.Binop (Opcode.Add, Instr.Ins a, Instr.Ins a)) Types.i64 in
        let mul = Instr.create ~ids (Instr.Binop (Opcode.Mul, Instr.Ins a, Instr.Ins a)) Types.i64 in
        check_bool "add <> mul" false
          (Instr.equal_opclass (Instr.opclass add) (Instr.opclass mul));
        check_bool "load class" true
          (Instr.equal_opclass (Instr.opclass a) (Instr.opclass (mk_load "B" 3))));
    tc "store has side effect, load does not" (fun () ->
        let ld = mk_load "A" 0 in
        let st =
          Instr.create ~ids
            (Instr.Store
               ({ Instr.base = "A"; elt = Types.I64;
                  index = Affine.sym "i"; access_lanes = 1 },
                Instr.Ins ld))
            Types.Void
        in
        check_bool "store" true (Instr.has_side_effect st);
        check_bool "load" false (Instr.has_side_effect ld);
        check_bool "store is memory access" true (Instr.is_memory_access st));
    tc "const equality is bitwise for floats" (fun () ->
        check_bool "nan = nan" true
          (Instr.equal_const (Instr.Cfloat Float.nan) (Instr.Cfloat Float.nan));
        check_bool "0. <> -0." false
          (Instr.equal_const (Instr.Cfloat 0.0) (Instr.Cfloat (-0.0)));
        check_bool "int vs float" false
          (Instr.equal_const (Instr.Cint 0L) (Instr.Cfloat 0.0)));
  ]

let block_tests =
  [
    tc "append preserves order and positions" (fun () ->
        let blk = Block.create ~ids () in
        let a = mk_load "A" 0 and b = mk_load "A" 1 in
        Block.append blk a;
        Block.append blk b;
        check_int "len" 2 (Block.length blk);
        let ar = Arena.of_block blk in
        check_int "pos a" 0 (Arena.pos ar a);
        check_int "pos b" 1 (Arena.pos ar b));
    tc "set_order splices before an anchor" (fun () ->
        let blk = Block.create ~ids () in
        let a = mk_load "A" 0 and b = mk_load "A" 1 and c = mk_load "A" 2 in
        Block.append blk a;
        Block.append blk c;
        Block.set_order blk
          (List.concat_map
             (fun x -> if Instr.equal x c then [ b; x ] else [ x ])
             (Block.to_list blk));
        let ar = Arena.of_block blk in
        check_int "pos b" 1 (Arena.pos ar b);
        check_int "pos c" 2 (Arena.pos ar c));
    tc "remove invalidates position" (fun () ->
        let blk = Block.create ~ids () in
        let a = mk_load "A" 0 in
        Block.append blk a;
        Block.remove_ids blk [ a.Instr.id ];
        check_bool "gone" false (Arena.mem (Arena.of_block blk) a);
        check_bool "not mem" false (Block.mem blk a));
    tc "reinstall: a later append leaves every earlier view as it was"
      (fun () ->
        let blk = Block.create ~ids () in
        let a = mk_load "A" 0 and b = mk_load "A" 1 and c = mk_load "A" 2 in
        Block.append blk a;
        let arr = Block.instrs blk and n = Block.length blk in
        Block.append blk b;
        let ar = Arena.of_block blk in
        Block.reinstall blk arr n;
        Block.append blk c;
        check_int "reinstalled, then appended" 2 (Block.length blk);
        check_bool "the view still reads b" true (Arena.instr ar 1 == b);
        check_bool "the block reads c" true
          (List.equal ( == ) [ a; c ] (Block.to_list blk)));
    tc "set_order" (fun () ->
        let blk = Block.create ~ids () in
        let a = mk_load "A" 0 and b = mk_load "A" 1 in
        Block.append blk a;
        Block.append blk b;
        Block.set_order blk [ b; a ];
        check_int "b first" 0 (Arena.pos (Arena.of_block blk) b));
  ]

let func_with_dead_code () =
  let b =
    Builder.create ~name:"dead"
      ~args:[ ("A", Instr.Array_arg Types.I64); ("i", Instr.Int_arg) ] ()
  in
  let x = Builder.load b ~base:"A" (Builder.idx 0) in
  let _dead = Builder.binop b Opcode.Add x (Builder.iconst 1) in
  let dead2 = Builder.binop b Opcode.Mul x x in
  let _dead3 = Builder.binop b Opcode.Add dead2 (Builder.iconst 2) in
  Builder.store b ~base:"A" (Builder.idx 1) x;
  Builder.func b

let dce_tests =
  [
    tc "removes dead trees transitively" (fun () ->
        let f = func_with_dead_code () in
        let removed = Dce.run f in
        check_int "removed" 3 removed;
        check_int "remaining" 2 (Block.length (Func.entry f));
        Verifier.verify_exn f);
    tc "keeps stores and their inputs" (fun () ->
        let f = func_with_dead_code () in
        ignore (Dce.run f);
        check_int "loads kept" 1 (count_insts Instr.is_load f);
        check_int "stores kept" 1 (count_insts Instr.is_store f));
    tc "idempotent" (fun () ->
        let f = func_with_dead_code () in
        ignore (Dce.run f);
        check_int "second run removes nothing" 0 (Dce.run f));
  ]

let cse_tests =
  [
    tc "unifies repeated loads" (fun () ->
        let f = compile {|
kernel k(f64 A[], f64 R[], i64 i) {
  R[i+0] = A[i] * A[i];
  R[i+1] = A[i] + A[i];
}
|} in
        check_int "one load" 1 (count_insts Instr.is_load f));
    tc "unifies commuted commutative expressions" (fun () ->
        let f = compile {|
kernel k(f64 A[], f64 B[], f64 R[], i64 i) {
  R[i+0] = A[i] * B[i];
  R[i+1] = B[i] * A[i];
}
|} in
        let fmuls =
          count_insts (fun i -> Instr.binop i = Some Opcode.Fmul) f
        in
        check_int "one fmul" 1 fmuls);
    tc "does not unify across aliasing stores" (fun () ->
        let f = compile {|
kernel k(f64 A[], f64 R[], i64 i) {
  R[i+0] = A[i] * 2.0;
  A[i] = 1.0;
  R[i+1] = A[i] * 2.0;
}
|} in
        check_int "two loads survive" 2 (count_insts Instr.is_load f));
    tc "does not unify non-commutative swaps" (fun () ->
        let f = compile {|
kernel k(f64 A[], f64 B[], f64 R[], i64 i) {
  R[i+0] = A[i] - B[i];
  R[i+1] = B[i] - A[i];
}
|} in
        let fsubs =
          count_insts (fun i -> Instr.binop i = Some Opcode.Fsub) f
        in
        check_int "two fsubs" 2 fsubs);
    tc "semantics preserved" (fun () ->
        (* build the un-CSE'd function by hand and compare against CSE'd *)
        let build () =
          let b =
            Builder.create ~name:"m"
              ~args:[ ("A", Instr.Array_arg Types.F64);
                      ("R", Instr.Array_arg Types.F64); ("i", Instr.Int_arg) ] ()
          in
          let x1 = Builder.load b ~base:"A" (Builder.idx 0) in
          let x2 = Builder.load b ~base:"A" (Builder.idx 0) in
          let s = Builder.binop b Opcode.Fmul x1 x2 in
          Builder.store b ~base:"R" (Builder.idx 0) s;
          Builder.func b
        in
        let reference = build () in
        let candidate = build () in
        ignore (Cse.run candidate);
        assert_sound ~reference ~candidate ());
  ]

(* Repeated loads and commuted products, a store that retires the loads
   of its array, and a second block that starts with nothing available. *)
let build_redundant ~value_numbering =
  let b =
    Builder.create ~value_numbering ~name:"vn"
      ~args:[ ("A", Instr.Array_arg Types.F64); ("B", Instr.Array_arg Types.F64);
              ("R", Instr.Array_arg Types.F64); ("i", Instr.Int_arg) ] ()
  in
  let body () =
    let a = Builder.load b ~base:"A" (Builder.idx 0) in
    let a' = Builder.load b ~base:"A" (Builder.idx 0) in
    let x = Builder.load b ~base:"B" (Builder.idx 0) in
    let p = Builder.binop b Opcode.Fmul a x in
    let q = Builder.binop b Opcode.Fmul x a' in
    let d = Builder.binop b Opcode.Fsub p q in
    let d' = Builder.binop b Opcode.Fsub q p in
    Builder.store b ~base:"R" (Builder.idx 0) (Builder.binop b Opcode.Fadd d d');
    Builder.store b ~base:"A" (Builder.idx 1) p;
    let a'' = Builder.load b ~base:"A" (Builder.idx 0) in
    let x' = Builder.load b ~base:"B" (Builder.idx 0) in
    Builder.store b ~base:"R" (Builder.idx 1) (Builder.binop b Opcode.Fmul a'' x')
  in
  body ();
  ignore (Builder.start_block b ());
  body ();
  Builder.func b

let numbering_tests =
  [
    tc "value numbering = building everything, then Cse.run" (fun () ->
        let plain = build_redundant ~value_numbering:false in
        let removed = Cse.run plain in
        let numbered = build_redundant ~value_numbering:true in
        check_int "duplicates in the plain build" 8 removed;
        check_string "same names, ids and operands"
          (Printer.func_to_string plain) (Printer.func_to_string numbered);
        check_int "nothing left to remove" 0 (Cse.run numbered));
  ]

let use_info_tests =
  [
    tc "counts uses" (fun () ->
        let f = compile {|
kernel k(f64 A[], f64 R[], i64 i) {
  f64 x = A[i];
  R[i+0] = x * x;
  R[i+1] = x + 1.0;
}
|} in
        let uses = Use_info.compute (Func.entry f) in
        let load = List.hd (Helpers.find_all Instr.is_load (Func.entry f)) in
        check_int "x used 3 times" 3 (Use_info.num_uses uses load);
        check_bool "not single use" false (Use_info.has_single_use uses load));
    tc "users_outside filters" (fun () ->
        let f = compile {|
kernel k(f64 A[], f64 R[], i64 i) {
  f64 x = A[i];
  R[i+0] = x * 2.0;
}
|} in
        let uses = Use_info.compute (Func.entry f) in
        let load = List.hd (Helpers.find_all Instr.is_load (Func.entry f)) in
        check_int "all outside" 1
          (List.length (Use_info.users_outside uses load ~inside:(fun _ -> false)));
        check_int "none outside" 0
          (List.length (Use_info.users_outside uses load ~inside:(fun _ -> true))));
  ]

let clone_tests =
  [
    tc "clone is deep and equivalent" (fun () ->
        let f = kernel "453.boy-surface" in
        let g = Func.clone f in
        check_int "same length" (Block.length (Func.entry f))
          (Block.length (Func.entry g));
        (* no instruction shared *)
        let ids (h : Func.t) =
          List.map (fun (i : Instr.t) -> i.id) (Block.to_list (Func.entry h))
        in
        List.iter
          (fun id -> check_bool "distinct ids" false (List.mem id (ids f)))
          (ids g);
        assert_sound ~reference:f ~candidate:g ());
    tc "mutating the clone leaves the original intact" (fun () ->
        let f = kernel "motivation-loads" in
        let n = Block.length (Func.entry f) in
        let g = Func.clone f in
        ignore (Lslp_core.Pipeline.run ~config:Lslp_core.Config.lslp g);
        check_int "original untouched" n (Block.length (Func.entry f)));
  ]

(* Builder's names come from its shared table (the first 64) or are
   written digit by digit; either way they must equal the plain
   [prefix ^ string_of_int n], across digit-count boundaries. *)
let builder_name_tests =
  [
    tc "names and labels are prefix ^ decimal counter" (fun () ->
        let b = Builder.create ~name:"names" ~args:[ ("n", Instr.Int_arg) ] () in
        let n = Builder.arg b "n" in
        for k = 0 to 1_050 do
          let hint = if k mod 2 = 0 then "" else "x" in
          match Builder.binop b ~name:hint Opcode.Add n n with
          | Instr.Ins i ->
            check_string "instruction name"
              ((if k mod 2 = 0 then "t" else "x") ^ string_of_int k)
              i.Instr.name
          | Instr.Const _ | Instr.Arg _ -> Alcotest.fail "binop built no instruction"
        done;
        for k = 0 to 110 do
          check_string "block label" ("b" ^ string_of_int k)
            (Block.label (Builder.start_block b ()))
        done);
  ]

let suite =
  types_tests @ opcode_tests @ instr_tests @ block_tests @ dce_tests
  @ cse_tests @ numbering_tests @ use_info_tests @ clone_tests @ builder_name_tests
