(* The region layer: for-loop parsing/lowering, the unroll (region
   formation) pass, self-contained-region enforcement, cloning across
   blocks, loop execution in the interpreter, and the loop kernels
   end-to-end through the pipeline. *)

open Lslp_ir
open Lslp_core
open Helpers

let unroll = Lslp_frontend.Unroll.run

let compile_unrolled ?(factor = 4) key =
  let f = Lslp_kernels.Catalog.compile_key key in
  ignore (unroll ~factor f);
  f

let loop_block f =
  match List.filter Block.is_loop (Func.blocks f) with
  | [ b ] -> b
  | bs -> Alcotest.failf "expected exactly one loop block, got %d" (List.length bs)

let info b =
  match Block.loop_info b with
  | Some li -> li
  | None -> Alcotest.fail "expected a loop block"

let labels f = List.map Block.label (Func.blocks f)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go k = k + n <= m && (String.sub s k n = sub || go (k + 1)) in
  n = 0 || go 0

let expect_lower_error substring src =
  match compile src with
  | exception Lslp_frontend.Lower.Error (msg, _) ->
    check_bool
      (Fmt.str "error mentions %S (got %S)" substring msg)
      true
      (contains ~sub:substring msg)
  | _f -> Alcotest.failf "expected a lowering error mentioning %S" substring

(* ---- frontend: parsing and lowering ------------------------------- *)

let frontend_tests =
  [
    tc "a for loop lowers to one loop block" (fun () ->
        let f =
          compile
            {|
kernel k(f64 Y[], f64 X[]) {
  for (i64 i = 0; i < 64; i += 1) {
    Y[i] = X[i] + 1.0;
  }
}
|}
        in
        check_int "one block" 1 (List.length (Func.blocks f));
        let li = info (loop_block f) in
        check_string "counter" "i" li.Block.counter;
        check_int "start" 0 li.Block.l_start;
        check_bool "stop" true (li.Block.l_stop = Block.Bound_const 64);
        check_int "step" 1 li.Block.l_step;
        check_int "trip count" 64
          (Option.get (Block.trip_count li));
        Verifier.verify_exn f);
    tc "straight code before and after the loop gets its own blocks"
      (fun () ->
        let f =
          compile
            {|
kernel k(f64 Y[], f64 X[]) {
  Y[0] = X[0];
  for (i64 i = 1; i < 9; i += 2) {
    Y[i] = X[i] + 1.0;
  }
  Y[9] = X[9];
}
|}
        in
        check_int "three blocks" 3 (List.length (Func.blocks f));
        (match Func.blocks f with
         | [ a; b; c ] ->
           check_bool "entry straight" false (Block.is_loop a);
           check_bool "middle loop" true (Block.is_loop b);
           check_bool "tail straight" false (Block.is_loop c);
           check_int "loop start" 1 (info b).Block.l_start;
           check_int "loop step" 2 (info b).Block.l_step
         | _ -> Alcotest.fail "expected 3 blocks");
        Verifier.verify_exn f);
    tc "a symbolic bound becomes Bound_sym" (fun () ->
        let f =
          compile
            {|
kernel k(f64 Y[], i64 n) {
  for (i64 i = 0; i < n; i += 1) {
    Y[i] = 2.0;
  }
}
|}
        in
        let li = info (loop_block f) in
        check_bool "bound_sym n" true (li.Block.l_stop = Block.Bound_sym "n");
        check_bool "no trip count" true (Block.trip_count li = None);
        Verifier.verify_exn f);
    tc "nested loops are rejected" (fun () ->
        expect_lower_error "nested loops"
          {|
kernel k(f64 Y[]) {
  for (i64 i = 0; i < 4; i += 1) {
    for (i64 j = 0; j < 4; j += 1) {
      Y[i] = 1.0;
    }
  }
}
|});
    tc "the counter cannot be used as a value" (fun () ->
        expect_lower_error "array subscripts"
          {|
kernel k(i64 Y[]) {
  for (i64 i = 0; i < 4; i += 1) {
    Y[i] = i;
  }
}
|});
    tc "locals do not cross region boundaries" (fun () ->
        expect_lower_error "different region"
          {|
kernel k(f64 Y[], f64 X[]) {
  f64 t = X[0] * 2.0;
  for (i64 i = 0; i < 4; i += 1) {
    Y[i] = t;
  }
}
|});
    tc "the counter cannot shadow a parameter" (fun () ->
        expect_lower_error "shadows a parameter"
          {|
kernel k(f64 Y[], i64 i) {
  for (i64 i = 0; i < 4; i += 1) {
    Y[i] = 1.0;
  }
}
|});
    tc "the loop bound must be a constant or an i64 parameter" (fun () ->
        expect_lower_error "loop bound"
          {|
kernel k(f64 Y[], i64 n) {
  for (i64 i = 0; i < n + 1; i += 1) {
    Y[i] = 1.0;
  }
}
|});
  ]

(* ---- region formation: the unroll pass ----------------------------- *)

let unroll_tests =
  [
    tc "exact trip count: main loop only, step scaled" (fun () ->
        let f = compile_unrolled ~factor:4 "loop.saxpy" in
        check_bool "labels" true (labels f = [ "loop0.x4" ]);
        let li = info (loop_block f) in
        check_int "step x4" 4 li.Block.l_step;
        check_bool "bound kept" true (li.Block.l_stop = Block.Bound_const 64);
        check_int "body x4" 20 (Func.num_instrs f);
        Verifier.verify_exn f);
    tc "a remainder becomes a pinned straight tail" (fun () ->
        let f =
          compile
            {|
kernel k(f64 Y[], f64 X[]) {
  for (i64 i = 0; i < 10; i += 1) {
    Y[i] = X[i] + 1.0;
  }
}
|}
        in
        check_int "one loop" 1 (unroll ~factor:4 f);
        check_bool "labels" true (labels f = [ "loop0.x4"; "loop0.tail" ]);
        (match Func.blocks f with
         | [ main; tail ] ->
           let li = info main in
           check_bool "main bound trimmed" true
             (li.Block.l_stop = Block.Bound_const 8);
           check_int "main step" 4 li.Block.l_step;
           check_bool "tail straight" false (Block.is_loop tail);
           (* 2 remainder iterations x 3 instructions, counter pinned *)
           check_int "tail size" 6 (Block.length tail);
           Block.iter
             (fun i ->
               match Instr.address i with
               | Some a ->
                 check_bool "tail index is constant" true
                   (Affine.is_const a.Instr.index)
               | None -> ())
             tail
         | _ -> Alcotest.fail "expected main + tail");
        Verifier.verify_exn f);
    tc "trip count <= factor unrolls fully" (fun () ->
        let f =
          compile
            {|
kernel k(f64 Y[], f64 X[]) {
  for (i64 i = 0; i < 3; i += 1) {
    Y[i] = X[i] + 1.0;
  }
}
|}
        in
        check_int "one loop" 1 (unroll ~factor:4 f);
        check_bool "labels" true (labels f = [ "loop0.full" ]);
        check_bool "no loop left" true
          (List.for_all (fun b -> not (Block.is_loop b)) (Func.blocks f));
        check_int "3 copies" 9 (Func.num_instrs f);
        Verifier.verify_exn f);
    tc "symbolic bounds are left untouched" (fun () ->
        let f = Lslp_kernels.Catalog.compile_key "loop.dyn" in
        let before = labels f in
        check_int "nothing unrolled" 0 (unroll ~factor:4 f);
        check_bool "unchanged" true (labels f = before);
        check_bool "still a loop" true (Block.is_loop (loop_block f)));
    tc "factor below 2 disables the pass" (fun () ->
        let f = Lslp_kernels.Catalog.compile_key "loop.saxpy" in
        check_int "factor 1" 0 (unroll ~factor:1 f);
        check_int "factor 0" 0 (unroll ~factor:0 f);
        check_bool "label kept" true (labels f = [ "loop0" ]));
    tc "unrolling preserves semantics on every loop kernel" (fun () ->
        List.iter
          (fun (k : Lslp_kernels.Catalog.kernel) ->
            let reference = Lslp_kernels.Catalog.compile k in
            let candidate = compile_unrolled ~factor:4 k.key in
            assert_sound ~reference ~candidate ())
          Lslp_kernels.Catalog.loops);
    tc "full unroll agrees with the loop interpreter" (fun () ->
        (* straight-line execution of the fully unrolled body must leave the
           same memory as iterating the original loop block *)
        let reference = Lslp_kernels.Catalog.compile_key "loop.stride2" in
        let candidate = compile_unrolled ~factor:16 "loop.stride2" in
        check_bool "fully unrolled" true
          (List.for_all (fun b -> not (Block.is_loop b))
             (Func.blocks candidate));
        assert_sound ~reference ~candidate ());
  ]

(* ---- Func.clone / Instr.copy across blocks (metadata preservation) -- *)

let clone_tests =
  [
    tc "Instr.copy refreshes the id and keeps every other field" (fun () ->
        let f = Lslp_kernels.Catalog.compile_key "loop.saxpy" in
        let i = List.hd (Block.to_list (Func.entry f)) in
        let c = Instr.copy ~ids:f.Func.ids i in
        check_bool "fresh id" true (c.Instr.id <> i.Instr.id);
        check_string "name kept" i.Instr.name c.Instr.name;
        check_bool "type kept" true (Types.equal i.Instr.ty c.Instr.ty);
        check_bool "kind shared" true (c.Instr.kind == i.Instr.kind));
    tc "clone preserves multi-block structure and loop metadata" (fun () ->
        let f =
          compile
            {|
kernel k(f64 Y[], f64 X[]) {
  Y[0] = X[0];
  for (i64 i = 1; i < 9; i += 2) {
    Y[i] = X[i] + 1.0;
  }
  Y[9] = X[9];
}
|}
        in
        let g = Func.clone f in
        check_bool "labels equal" true (labels f = labels g);
        check_int "instr count equal" (Func.num_instrs f) (Func.num_instrs g);
        List.iter2
          (fun bf bg ->
            check_bool "kind equal" true (Block.kind bf = Block.kind bg))
          (Func.blocks f) (Func.blocks g);
        (* fresh instructions, preserved names *)
        let ids h =
          Func.fold_instrs (fun acc i -> i.Instr.id :: acc) [] h
        in
        List.iter
          (fun id -> check_bool "ids disjoint" false (List.mem id (ids f)))
          (ids g);
        List.iter2
          (fun (a : Instr.t) (b : Instr.t) ->
            check_string "names preserved" a.Instr.name b.Instr.name)
          (List.rev (Func.fold_instrs (fun acc i -> i :: acc) [] f))
          (List.rev (Func.fold_instrs (fun acc i -> i :: acc) [] g));
        Verifier.verify_exn g;
        (* the clone is live: mutating it leaves the original intact *)
        let n = Block.length (Func.entry f) in
        Block.remove_ids (Func.entry g)
          [ (List.hd (Block.to_list (Func.entry g))).Instr.id ];
        check_int "original untouched" n (Block.length (Func.entry f)));
    tc "clone keeps a foreign operand whose id collides with its own"
      (fun () ->
        (* ids are unique per function only: [other]'s load and [f]'s load
           are both id 1, and [f]'s add reads [other]'s *)
        let load_a (f : Func.t) =
          Instr.create ~ids:f.Func.ids ~name:"ld"
            (Instr.Load
               { Instr.base = "A"; index = Affine.const 0; elt = Types.I64;
                 access_lanes = 1 })
            Types.i64
        in
        let args =
          [ { Instr.arg_name = "A"; arg_ty = Instr.Array_arg Types.I64 } ]
        in
        let other = Func.create ~name:"other" ~args in
        let foreign = load_a other in
        let f = Func.create ~name:"f" ~args in
        let own = load_a f in
        check_int "ids collide" foreign.Instr.id own.Instr.id;
        let add =
          Instr.create ~ids:f.Func.ids ~name:"t"
            (Instr.Binop (Opcode.Add, Instr.Ins own, Instr.Ins foreign))
            Types.i64
        in
        List.iter (Block.append (Func.entry f)) [ own; add ];
        let g = Func.clone f in
        match Block.to_list (Func.entry g) with
        | [ own'; add' ] -> (
          match Instr.operands add' with
          | [ Instr.Ins x; Instr.Ins y ] ->
            check_bool "own operand remapped" true (x == own');
            check_bool "foreign operand kept" true (y == foreign)
          | _ -> Alcotest.fail "add lost its operands")
        | _ -> Alcotest.fail "clone lost instructions");
  ]

(* ---- verifier: self-contained regions ------------------------------ *)

let verifier_tests =
  [
    tc "cross-block value references are rejected" (fun () ->
        let f =
          Func.create ~name:"x"
            ~args:[ { Instr.arg_name = "A"; arg_ty = Instr.Array_arg Types.I64 } ]
        in
        let b1 = Func.entry f in
        let load =
          Instr.create ~ids:f.Func.ids ~name:"ld"
            (Instr.Load
               { Instr.base = "A"; index = Affine.const 0; elt = Types.I64;
                 access_lanes = 1 })
            (Types.Scalar Types.I64)
        in
        Block.append b1 load;
        let b2 = Block.create ~ids:f.Func.ids ~label:"b2" () in
        Func.add_block f b2;
        Block.append b2
          (Instr.create ~ids:f.Func.ids ~name:"st"
             (Instr.Store
                ({ Instr.base = "A"; index = Affine.const 1; elt = Types.I64;
                   access_lanes = 1 },
                 Instr.Ins load))
             Types.Void);
        (match Verifier.check_func f with
         | [] -> Alcotest.fail "expected a cross-block error"
         | e :: _ ->
           check_bool "mentions region rule" true
             (contains ~sub:"another block" e.Verifier.message)));
    tc "duplicate block labels are rejected" (fun () ->
        let f = Func.create ~name:"x" ~args:[] in
        Func.add_block f (Block.create ~ids:f.Func.ids ~label:"entry" ());
        check_bool "error" true (Verifier.check_func f <> []));
    tc "loop sanity: step must be positive" (fun () ->
        let f = Func.create ~name:"x" ~args:[] in
        Func.add_block f
          (Block.create ~ids:f.Func.ids ~label:"l"
             ~kind:
               (Block.Loop
                  { Block.counter = "i"; l_start = 0;
                    l_stop = Block.Bound_const 4; l_step = 0 })
             ());
        check_bool "error" true (Verifier.check_func f <> []));
    tc "loop sanity: symbolic bound must be an i64 argument" (fun () ->
        let f = Func.create ~name:"x" ~args:[] in
        Func.add_block f
          (Block.create ~ids:f.Func.ids ~label:"l"
             ~kind:
               (Block.Loop
                  { Block.counter = "i"; l_start = 0;
                    l_stop = Block.Bound_sym "zz"; l_step = 1 })
             ());
        check_bool "error" true (Verifier.check_func f <> []));
  ]

(* ---- the loop kernels end-to-end ----------------------------------- *)

let pipeline_tests =
  [
    tc "loop.saxpy vectorizes through region formation, zero diagnostics"
      (fun () ->
        let reference = Lslp_kernels.Catalog.compile_key "loop.saxpy" in
        let f = compile_unrolled "loop.saxpy" in
        let config = Config.with_validate true Config.lslp in
        let report, g = Pipeline.run_cloned ~config f in
        check_int "one region vectorized" 1
          report.Pipeline.vectorized_regions;
        check_int "no diagnostics" 0
          (List.length report.Pipeline.diagnostics);
        (match report.Pipeline.regions with
         | [ r ] ->
           check_string "region id" "loop0.x4" r.Lslp_check.Remark.block;
           check_bool "vectorized" true
             (r.Lslp_check.Remark.outcome = Lslp_check.Remark.Vectorized)
         | _ -> Alcotest.fail "expected one region");
        check_bool "wide store emitted" true
          (count_insts is_wide_store g = 1);
        assert_sound ~reference ~candidate:g ());
    tc "every loop kernel survives unroll + vectorize under every config"
      (fun () ->
        List.iter
          (fun (k : Lslp_kernels.Catalog.kernel) ->
            List.iter
              (fun config ->
                let reference = Lslp_kernels.Catalog.compile k in
                let f = compile_unrolled k.key in
                let config = Config.with_validate true config in
                let report, g = Pipeline.run_cloned ~config f in
                check_int
                  (Fmt.str "%s/%s: no diagnostics" k.key config.Config.name)
                  0
                  (List.length report.Pipeline.diagnostics);
                assert_sound ~reference ~candidate:g ())
              [ Config.slp_nr; Config.slp; Config.lslp ])
          Lslp_kernels.Catalog.loops);
    tc "loop.dot-serial and loop.dyn stay scalar" (fun () ->
        List.iter
          (fun key ->
            let f = compile_unrolled key in
            let report, g = Pipeline.run_cloned ~config:Config.lslp f in
            check_int (key ^ " scalar") 0 report.Pipeline.vectorized_regions;
            check_int (key ^ " no vectors") 0 (count_insts is_vector_op g))
          [ "loop.dot-serial"; "loop.dyn" ]);
    tc "vectorized loop kernels beat their scalar baseline" (fun () ->
        List.iter
          (fun key ->
            let reference = Lslp_kernels.Catalog.compile_key key in
            let f = compile_unrolled key in
            let _, g = Pipeline.run_cloned ~config:Config.lslp f in
            let o =
              Lslp_interp.Oracle.compare_runs ~reference ~candidate:g ()
            in
            check_bool
              (Fmt.str "%s speeds up (%d -> %d)" key
                 o.Lslp_interp.Oracle.reference_cycles
                 o.Lslp_interp.Oracle.candidate_cycles)
              true
              (o.Lslp_interp.Oracle.candidate_cycles
               < o.Lslp_interp.Oracle.reference_cycles))
          [ "loop.saxpy"; "loop.listing1"; "loop.stride2" ]);
    tc "remarks carry the region id" (fun () ->
        let f = compile_unrolled "loop.saxpy" in
        let config = Config.with_remarks true Config.lslp in
        let report, _ = Pipeline.run_cloned ~config f in
        check_bool "at least one remark" true
          (report.Pipeline.remarks <> []);
        List.iter
          (fun (r : Lslp_check.Remark.t) ->
            check_string "block id" "loop0.x4" r.Lslp_check.Remark.block)
          report.Pipeline.remarks);
    tc "mixed prologue + loop: every region reports its own block"
      (fun () ->
        let f =
          compile
            {|
kernel k(f64 Y[], f64 X[]) {
  Y[100] = X[100] + 1.0;
  Y[101] = X[101] + 1.0;
  for (i64 i = 0; i < 8; i += 1) {
    Y[i] = X[i] * 2.0;
  }
}
|}
        in
        ignore (unroll ~factor:4 f);
        let reference = Func.clone f in
        let report, g = Pipeline.run_cloned ~config:Config.lslp f in
        let ids =
          List.sort_uniq String.compare
            (List.map
               (fun (r : Lslp_check.Remark.t) -> r.Lslp_check.Remark.block)
               (List.filter
                  (fun (r : Lslp_check.Remark.t) ->
                    r.Lslp_check.Remark.outcome = Lslp_check.Remark.Vectorized)
                  report.Pipeline.regions))
        in
        check_bool "entry and loop both vectorized" true
          (ids = [ "entry"; "loop0.x4" ]);
        assert_sound ~reference ~candidate:g ());
  ]

let suite =
  frontend_tests @ unroll_tests @ clone_tests @ verifier_tests
  @ pipeline_tests
