(* Tests for the cost model: calibration against the constants the paper's
   worked examples use, and the TTI-vs-machine divergence. *)

open Lslp_ir
open Lslp_costmodel
open Helpers

let tti = Model.skylake_avx2
let machine = Model.skylake_machine

(* the id source of the free-standing instructions below *)
let ids = Lslp_util.Id_gen.create ~first:1 ()

let mk_binop op =
  Instr.create ~ids
    (Instr.Binop (op, Builder.iconst 1, Builder.iconst 2))
    (Types.Scalar (Opcode.binop_operand_scalar op))

let mk_load lanes =
  Instr.create ~ids
    (Instr.Load
       { Instr.base = "A"; elt = Types.I64; index = Affine.sym "i";
         access_lanes = lanes })
    (if lanes = 1 then Types.i64 else Types.vec Types.I64 lanes)

let suite =
  [
    tc "max_lanes: 256-bit = 4 x 64-bit" (fun () ->
        check_int "i64" 4 (Model.max_lanes tti Types.I64);
        check_int "f64" 4 (Model.max_lanes tti Types.F64);
        check_int "sse i64" 2 (Model.max_lanes Model.sse_like Types.I64));
    tc "ALU group of 2 saves 1 (paper calibration)" (fun () ->
        let add = mk_binop Opcode.Add in
        let vec = Model.vector_group_cost tti add ~lanes:2 in
        let scalar = Model.scalar_instr_cost tti add in
        check_int "vec 1" 1 vec;
        check_int "scalar 1" 1 scalar;
        check_int "group cost -1" (-1) (vec - (2 * scalar)));
    tc "gather of 2 arbitrary scalars costs +2 (paper calibration)" (fun () ->
        let x = Instr.Ins (mk_binop Opcode.Add) in
        let y = Instr.Ins (mk_binop Opcode.Add) in
        check_int "+2" 2 (Model.gather_cost tti [ x; y ]));
    tc "all-constant gather is free (paper calibration)" (fun () ->
        check_int "0" 0
          (Model.gather_cost tti [ Builder.iconst 1; Builder.iconst 3 ]));
    tc "mixed constant+instruction gather pays per lane" (fun () ->
        let x = Instr.Ins (mk_binop Opcode.Add) in
        check_int "+2" 2 (Model.gather_cost tti [ Builder.iconst 1; x ]));
    tc "splat gather costs one broadcast" (fun () ->
        let x = Instr.Ins (mk_binop Opcode.Add) in
        check_int "splat" 1 (Model.gather_cost tti [ x; x; x; x ]));
    tc "classify_gather" (fun () ->
        let x = Instr.Ins (mk_binop Opcode.Add) in
        check_bool "free" true
          (Model.classify_gather [| Builder.fconst 1.0 |] = Model.Gather_free);
        check_bool "splat" true
          (Model.classify_gather [| x; x |] = Model.Gather_splat);
        check_bool "insert" true
          (Model.classify_gather [| x; Builder.iconst 1 |] = Model.Gather_insert));
    tc "integer division is expensive and scalarized" (fun () ->
        let d = Model.skylake_avx2.binop_cost Opcode.Sdiv in
        check_bool "scalar > alu" true (d.scalar > 4);
        check_bool "vector worse than scalar sum" true (d.vector 4 > 4 * d.scalar));
    tc "fdiv vectorization is profitable" (fun () ->
        let d = Model.skylake_avx2.binop_cost Opcode.Fdiv in
        check_bool "vector 4 < 4x scalar" true (d.vector 4 < 4 * d.scalar));
    tc "machine charges ALU inserts double, load inserts equal" (fun () ->
        let alu = Instr.Ins (mk_binop Opcode.Add) in
        let ld = Instr.Ins (mk_load 1) in
        check_int "tti alu+load" 2 (Model.gather_cost tti [ alu; ld ]);
        check_int "machine alu+load" 3 (Model.gather_cost machine [ alu; ld ]));
    tc "machine and tti agree elsewhere" (fun () ->
        List.iter
          (fun op ->
            let i = mk_binop op in
            check_int (Opcode.binop_name op)
              (Model.scalar_instr_cost tti i)
              (Model.scalar_instr_cost machine i))
          Opcode.all_binops);
    tc "instr_cost charges vector ops at their width" (fun () ->
        let wide = mk_load 4 in
        check_int "wide load" (tti.load_cost.vector 4) (Model.instr_cost tti wide);
        check_int "scalar load" tti.load_cost.scalar
          (Model.instr_cost tti (mk_load 1)));
    tc "buildvec instruction cost matches gather classification" (fun () ->
        let consts = [ Builder.iconst 1; Builder.iconst 2 ] in
        let bv =
          Instr.create ~ids (Instr.Buildvec consts) (Types.vec Types.I64 2)
        in
        check_int "const buildvec free" 0 (Model.instr_cost tti bv));
    tc "extract and splat costs" (fun () ->
        let wide = mk_load 2 in
        let ex =
          Instr.create ~ids (Instr.Extract (Instr.Ins wide, 0)) Types.i64
        in
        check_int "extract" 1 (Model.instr_cost tti ex);
        let sp =
          Instr.create ~ids (Instr.Splat (Builder.iconst 3)) (Types.vec Types.I64 2)
        in
        check_int "splat" 1 (Model.instr_cost tti sp));
    tc "fsqrt cost" (fun () ->
        let u = Model.skylake_avx2.unop_cost Opcode.Fsqrt in
        check_bool "expensive" true (u.scalar > 4);
        check_bool "vector amortizes" true (u.vector 4 < 4 * u.scalar));
  ]
