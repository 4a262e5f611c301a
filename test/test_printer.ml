(* The Buffer-emitter printer against the Format reference
   ([Printer_ref]): every text form must be byte-identical, because printed
   IR is what the golden files, the trace logs and the service cache keys
   are made of.  Also pins the builder's type-error texts, whose operand
   names are now built only on the error branch. *)

open Lslp_ir
open Helpers
module Config = Lslp_core.Config
module Pipeline = Lslp_core.Pipeline
module Catalog = Lslp_kernels.Catalog
module Gen = Lslp_fuzz.Gen

let embedded pp f = Fmt.str "@[<v 2>x@,%a@]" pp f

(* Raises an Alcotest failure on the first text form that differs. *)
let check_agrees (f : Func.t) =
  let expected = Fmt.str "%a" Printer_ref.pp_func f in
  check_string "func_to_string" expected (Printer.func_to_string f);
  check_string "pp_func" expected (Fmt.str "%a" Printer.pp_func f);
  check_string "pp_func in an indented box"
    (embedded Printer_ref.pp_func f)
    (embedded Printer.pp_func f);
  let value v =
    check_string "value_to_string"
      (Fmt.str "%a" Printer_ref.pp_value v)
      (Printer.value_to_string v)
  in
  Func.iter_instrs
    (fun i ->
      check_string "instr_to_string"
        (Fmt.str "%a" Printer_ref.pp_instr i)
        (Printer.instr_to_string i);
      value (Instr.Ins i);
      List.iter value (Instr.operands i))
    f

let catalog_agrees () =
  List.iter
    (fun (k : Catalog.kernel) ->
      List.iter
        (fun unroll ->
          List.iter
            (fun config ->
              let f = Catalog.compile k in
              ignore (Lslp_frontend.Unroll.run ~factor:unroll f);
              check_agrees f;
              ignore (Pipeline.run ~config f);
              check_agrees f)
            Test_qcheck.all_configs)
        [ 1; 2; 4 ])
    Catalog.all

let fuzz_prop ~cond_only name =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name
       ~print:(fun seed -> Fmt.str "seed %d" seed)
       QCheck2.Gen.(int_bound 100_000)
       (fun seed ->
         let st = Random.State.make [| seed; 0x9e7 |] in
         let f = Gen.build (Gen.generate ~cond_only st) in
         check_agrees f;
         ignore (Lslp_frontend.Unroll.run ~factor:4 f);
         ignore (Pipeline.run ~config:Config.lslp f);
         check_agrees f;
         true))

(* ---- hand-built corner cases ------------------------------------------- *)

let corner_args =
  [ ("A", Instr.Array_arg Types.I64); ("F", Instr.Array_arg Types.F64);
    ("G", Instr.Array_arg Types.F32); ("H", Instr.Array_arg Types.I32);
    ("n", Instr.Int_arg); ("x", Instr.Float_arg) ]

(* a single-rounded f32 constant: 0.1 rounded this way does not round-trip
   through its 7-digit decimal form *)
let single x =
  Instr.Const (Instr.Cfloat32 (Int32.float_of_bits (Int32.bits_of_float x)))

(* Every instruction kind, constants that do and do not round-trip through
   their short decimal form, and affine indices with negative parts. *)
let corner_instrs b =
  (* kinds the builder does not construct, appended as they are *)
  let raw ?name kind ty =
    Block.append (Builder.current_block b) (Instr.create ?name kind ty)
  in
  let index =
    Affine.add_const (-5)
      (Affine.add (Affine.sym ~coeff:(-3) "j") (Affine.sym ~coeff:(-1) "i"))
  in
  let addr ?(lanes = 1) base elt index =
    { Instr.base; elt; index; access_lanes = lanes }
  in
  let f64 = Builder.load b ~base:"F" index in
  let i64 =
    Builder.load b ~base:"A" (Affine.add_const 3 (Affine.sym ~coeff:2 "i"))
  in
  let floats =
    [ 0.1 +. 0.2; -0.0; 0.0; infinity; neg_infinity; nan; 1.5; 1e300; -2.5e-7 ]
  in
  List.iter
    (fun x -> ignore (Builder.binop b Opcode.Fadd f64 (Builder.fconst x)))
    floats;
  let f32 = Builder.load b ~base:"G" (Affine.const (-4)) in
  List.iter
    (fun x -> ignore (Builder.binop b Opcode.Fmul f32 (single x)))
    [ 0.1; 2.5; -0.0; infinity; nan ];
  let i32 = Builder.load b ~base:"H" (Affine.sym ~coeff:(-1) "i") in
  ignore (Builder.binop b Opcode.Add i32 (Builder.iconst32 (-7)));
  ignore (Builder.binop b Opcode.Sub i64 (Builder.iconst64 Int64.min_int));
  ignore (Builder.unop b Opcode.Fneg f64);
  let m = Builder.cmp b Opcode.Ge f64 (Builder.arg b "x") in
  ignore (Builder.select b m f64 (Builder.fconst 0.5));
  ignore
    (Builder.masked_load b ~base:"F" (Affine.sym "i") ~mask:m
       ~passthrough:(Builder.fconst 0.0));
  Builder.masked_store b ~base:"F" (Affine.sym "j") f64 ~mask:m;
  Builder.store b ~base:"A" (Affine.sym "n") (Builder.arg b "n");
  let v4 = Types.vec Types.F64 4 in
  let wide = addr ~lanes:4 "F" Types.F64 (Affine.sym "i") in
  raw ~name:"w" (Instr.Load wide) v4;
  raw (Instr.Store (wide, f64)) Types.Void;
  raw (Instr.Masked_load (addr ~lanes:4 "G" Types.F32 index, m, f32))
    (Types.vec Types.F32 4);
  raw (Instr.Splat f64) v4;
  raw (Instr.Buildvec []) v4;
  raw (Instr.Buildvec [ f64 ]) v4;
  raw (Instr.Buildvec [ f64; Builder.fconst (0.1 +. 0.2); single 0.1; i64 ]) v4;
  raw (Instr.Shuffle (f64, [])) v4;
  raw (Instr.Shuffle (f64, [ 0 ])) v4;
  raw (Instr.Shuffle (f64, [ 3; 2; 1; 0 ])) v4;
  raw (Instr.Extract (f64, 3)) Types.f64;
  raw (Instr.Reduce (Opcode.Fadd, f64)) Types.f64;
  raw (Instr.Cmp (Opcode.Ne, i64, Builder.iconst 0)) (Types.vec Types.I1 2)

let corner_func ~blocks =
  let b = Builder.create ~name:"corner" ~args:corner_args in
  corner_instrs b;
  if blocks then (
    let loop counter l_start l_stop l_step =
      Block.Loop { Block.counter; l_start; l_stop; l_step }
    in
    ignore
      (Builder.start_block b ~kind:(loop "i" 0 (Block.Bound_const 16) 4) ());
    corner_instrs b;
    ignore
      (Builder.start_block b ~label:"sym"
         ~kind:(loop "j" 2 (Block.Bound_sym "n") 1)
         ());
    corner_instrs b;
    ignore (Builder.start_block b ());
    corner_instrs b);
  Builder.func b

let corner_tests =
  [
    tc "straight-line corner cases match the reference" (fun () ->
        check_agrees (corner_func ~blocks:false));
    tc "multi-block and loop corner cases match the reference" (fun () ->
        check_agrees (corner_func ~blocks:true));
    tc "a loop-only function prints its header" (fun () ->
        let b = Builder.create ~name:"l" ~args:corner_args in
        let f = Builder.func b in
        let body =
          Block.create ~label:"body"
            ~kind:
              (Block.Loop
                 { Block.counter = "i"; l_start = -1;
                   l_stop = Block.Bound_const (-9); l_step = 3 })
            ()
        in
        Func.replace_block f (Func.entry f) [ body ];
        check_agrees f);
    tc "empty function matches the reference" (fun () ->
        check_agrees (Func.create ~name:"" ~args:[]));
    tc "exact constants match the reference" (fun () ->
        List.iter
          (fun c ->
            check_string "pp_const"
              (Fmt.str "%a" Printer_ref.pp_const c)
              (Fmt.str "%a" Printer.pp_const c);
            check_string "pp_const_readable"
              (Fmt.str "%a" Printer_ref.pp_const_readable c)
              (Fmt.str "%a" Printer.pp_const_readable c))
          [ Instr.Cint 0L; Instr.Cint Int64.min_int; Instr.Cint32 (-7l);
            Instr.Cint32 Int32.max_int; Instr.Cfloat (0.1 +. 0.2);
            Instr.Cfloat (-0.0); Instr.Cfloat nan; Instr.Cfloat neg_infinity;
            Instr.Cfloat32 0.1; Instr.Cfloat32 2.5; Instr.Cfloat32 infinity ]);
  ]

(* ---- builder error texts ------------------------------------------------ *)

let type_error_text f =
  match f () with
  | () -> Alcotest.fail "expected a type error"
  | exception Builder.Type_error s -> s

let builder_error_tests =
  let setup () =
    let b =
      Builder.create ~name:"e" ~args:[ ("A", Instr.Array_arg Types.I64) ]
    in
    let v = Builder.load b ~base:"A" (Affine.sym "i") in
    let m = Builder.cmp b Opcode.Lt v (Builder.iconst 0) in
    (b, v, m)
  in
  let pinned name expected f =
    tc ("builder error text: " ^ name) (fun () ->
        let b, v, m = setup () in
        check_string "message" expected (type_error_text (fun () -> f b v m)))
  in
  let i = Affine.sym "i" in
  let one = Builder.iconst 1 and half = Builder.fconst 0.5 in
  [
    pinned "store to A" "store to A expects i64 operand, got f64"
      (fun b _ _ -> Builder.store b ~base:"A" i half);
    pinned "masked.load from A mask"
      "masked.load from A mask expects i1 operand, got i64" (fun b v _ ->
        ignore (Builder.masked_load b ~base:"A" i ~mask:one ~passthrough:v));
    pinned "masked.load from A passthrough"
      "masked.load from A passthrough expects i64 operand, got f64"
      (fun b _ m ->
        ignore (Builder.masked_load b ~base:"A" i ~mask:m ~passthrough:half));
    pinned "masked.store to A" "masked.store to A expects i64 operand, got f64"
      (fun b _ m -> Builder.masked_store b ~base:"A" i half ~mask:m);
    pinned "masked.store to A mask"
      "masked.store to A mask expects i1 operand, got i64" (fun b v _ ->
        Builder.masked_store b ~base:"A" i v ~mask:one);
  ]

let suite =
  [ tc "catalog x configs x unroll match the reference" catalog_agrees;
    fuzz_prop ~cond_only:false "random programs print like the reference";
    fuzz_prop ~cond_only:true
      "random branching programs print like the reference" ]
  @ corner_tests @ builder_error_tests
