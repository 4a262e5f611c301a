(* Branching kernels and masked lanes.

   Three layers of coverage for if-conversion:

   - the frontend: `if`/`else` flattens into predicated straight-line IR
     (one compare per condition, the else mask from the negated compare on
     the SAME operand values, masks composing with And under nesting,
     branch-local declarations merged with a select at the join);
   - the scalar semantics laws the masked instructions must satisfy
     (select picks by lane, masked stores write exactly the live lanes,
     masked loads round-trip and never touch masked-off memory) — stated
     against the interpreter as ground truth, QCheck-driven where the law
     quantifies over masks and values;
   - the pipeline: the cond.* catalog kernels vectorize, validate cleanly
     and stay observationally equivalent, and random branching programs
     from the fuzzer's Cond shape survive end to end. *)

open Lslp_ir
open Lslp_core
open Lslp_interp
open Helpers

let is_masked_store (i : Instr.t) =
  match i.Instr.kind with Instr.Masked_store _ -> true | _ -> false

let is_masked_load (i : Instr.t) =
  match i.Instr.kind with Instr.Masked_load _ -> true | _ -> false

let is_cmp (i : Instr.t) =
  match i.Instr.kind with Instr.Cmp _ -> true | _ -> false

let is_select (i : Instr.t) =
  match i.Instr.kind with Instr.Select _ -> true | _ -> false

let cmp_ops f =
  Func.fold_instrs
    (fun acc (i : Instr.t) ->
      match i.Instr.kind with Instr.Cmp (op, _, _) -> op :: acc | _ -> acc)
    [] f

(* ---- frontend: the shape if-conversion produces -------------------- *)

let abs_src =
  "kernel k(f64 x[], f64 y[], i64 i) {\n\
  \  if (x[i] < 0.0) { y[i] = 0.0 - x[i]; } else { y[i] = x[i]; }\n\
   }"

let test_else_negates_compare () =
  let f = compile abs_src in
  check_int "two masked stores" 2 (count_insts is_masked_store f);
  check_int "no unmasked store" 0
    (count_insts (fun i -> Instr.is_store i && not (is_masked_store i)) f);
  match List.sort compare (cmp_ops f) with
  | [ a; b ] ->
    check_bool "then-compare and its negation" true
      ((a = Opcode.Lt && b = Opcode.Ge) || (a = Opcode.Ge && b = Opcode.Lt))
  | ops -> Alcotest.failf "expected 2 compares, got %d" (List.length ops)

let test_no_else_single_mask () =
  let f =
    compile
      "kernel k(i64 g[], f64 y[], i64 i) {\n\
      \  if (g[i] > 0) { y[i] = 2.5; }\n\
       }"
  in
  check_int "one compare" 1 (count_insts is_cmp f);
  check_int "one masked store" 1 (count_insts is_masked_store f)

let test_branch_loads_masked () =
  let f = compile abs_src in
  check_bool "loads under the branch are masked" true
    (count_insts is_masked_load f >= 1);
  (* every masked load carries a zero passthrough: the lane's value is
     discarded by the guarded store anyway *)
  Func.iter_instrs
    (fun (i : Instr.t) ->
      match i.Instr.kind with
      | Instr.Masked_load (_, _, p) ->
        check_bool "zero passthrough" true
          (Instr.equal_value p (Instr.Const (Instr.Cfloat 0.0)))
      | _ -> ())
    f

let test_nested_masks_and () =
  let f =
    compile
      "kernel k(f64 a[], f64 b[], f64 r[], i64 i) {\n\
      \  if (a[i] < 1.0) {\n\
      \    if (b[i] < 2.0) { r[i] = 3.0; }\n\
      \  }\n\
       }"
  in
  let ands =
    count_insts
      (fun (i : Instr.t) ->
        Instr.binop i = Some Opcode.And
        && Types.equal i.Instr.ty (Types.Scalar Types.I1))
      f
  in
  check_int "inner mask = outer AND inner compare" 1 ands;
  check_int "one masked store" 1 (count_insts is_masked_store f)

let join_src =
  "kernel k(f64 x[], f64 y[], i64 i) {\n\
  \  if (x[i] < 0.5) { f64 t = x[i] * 2.0; } else { f64 t = x[i] + 1.0; }\n\
  \  y[i] = t;\n\
   }"

let test_join_select () =
  let f = compile join_src in
  check_bool "join merges the local with a select" true
    (count_insts is_select f >= 1);
  (* semantics of the merge: x = 2.0 takes the else path, t = 3.0 *)
  let mem = Memory.create () in
  Memory.set_float mem "x" [| 2.0 |];
  Memory.set_float mem "y" [| 0.0 |];
  ignore (Eval.run f ~int_args:[ ("i", 0L) ] ~float_args:[] ~mem);
  check_bool "else value selected" true (Memory.read_float mem "y" 0 = 3.0);
  Memory.set_float mem "x" [| -1.0 |];
  ignore (Eval.run f ~int_args:[ ("i", 0L) ] ~float_args:[] ~mem);
  check_bool "then value selected" true (Memory.read_float mem "y" 0 = -2.0)

let lower_err src =
  try
    ignore (compile src);
    None
  with Lslp_frontend.Lower.Error (msg, _) -> Some msg

let parse_rejects src =
  try
    ignore (compile src);
    false
  with Lslp_frontend.Parser.Error _ -> true

let test_loop_under_branch_rejected () =
  match
    lower_err
      "kernel k(f64 g[], f64 y[]) {\n\
      \  if (g[0] < 0.0) {\n\
      \    for (i64 i = 0; i < 4; i += 1) { y[i] = 1.0; }\n\
      \  }\n\
       }"
  with
  | Some msg -> check_bool "names the restriction" true (String.length msg > 0)
  | None -> Alcotest.fail "loop under a branch lowered"

let test_condition_must_compare () =
  check_bool "bare value condition rejected" true
    (parse_rejects
       "kernel k(f64 x[], f64 y[], i64 i) { if (x[i]) { y[i] = 1.0; } }")

let test_compare_not_a_value () =
  check_bool "comparison as a value rejected" true
    (parse_rejects
       "kernel k(f64 x[], f64 y[], i64 i) { y[i] = (x[i] < 1.0); }")

let test_join_type_mismatch_rejected () =
  match
    lower_err
      "kernel k(f64 x[], f64 y[], i64 i) {\n\
      \  if (x[i] < 0.5) { f64 t = 1.0; } else { i64 t = 1; }\n\
      \  y[i] = 1.0;\n\
       }"
  with
  | Some _ -> ()
  | None -> Alcotest.fail "mismatched join types lowered"

(* ---- scalar semantics laws (interpreter as ground truth) ----------- *)

(* Build a 4-lane straight-line function over a guard array G: per lane,
   [body] receives the builder, the lane index and the lane's i1 mask
   (G[lane] > 0).  Run it on [masks]-derived guard data and return the
   memory. *)
let run_masked_lanes ~masks ~setup body =
  let b =
    Builder.create ~name:"law"
      ~args:
        [ ("G", Instr.Array_arg Types.F64); ("S", Instr.Array_arg Types.F64);
          ("R", Instr.Array_arg Types.F64); ("i", Instr.Int_arg) ] ()
  in
  for lane = 0 to Array.length masks - 1 do
    let g = Builder.load b ~base:"G" (Builder.idx lane) in
    let m = Builder.cmp b Opcode.Gt g (Builder.fconst 0.0) in
    body b lane m
  done;
  let f = Builder.func b in
  Verifier.verify_exn f;
  let mem = Memory.create () in
  Memory.set_float mem "G"
    (Array.map (fun on -> if on then 1.0 else -1.0) masks);
  setup mem;
  ignore (Eval.run f ~int_args:[ ("i", 0L) ] ~float_args:[] ~mem);
  mem

let gen_lane_data =
  QCheck2.Gen.(
    array_size (return 4)
      (pair bool (pair (float_bound_exclusive 8.0) (float_bound_exclusive 8.0))))

let print_lane_data d =
  Fmt.str "%a"
    Fmt.(Dump.array (Dump.pair Fmt.bool (Dump.pair Fmt.float Fmt.float)))
    d

let qcheck_select_law =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"select(m, a, b) yields a on live lanes and b on dead ones"
       ~print:print_lane_data gen_lane_data
       (fun data ->
         let masks = Array.map fst data in
         let mem =
           run_masked_lanes ~masks
             ~setup:(fun mem -> Memory.set_float mem "R" (Array.make 4 0.0))
             (fun b lane m ->
               let a, c = snd data.(lane) in
               let s =
                 Builder.select b m (Builder.fconst a) (Builder.fconst c)
               in
               Builder.store b ~base:"R" (Builder.idx lane) s)
         in
         Array.for_all Fun.id
           (Array.mapi
              (fun k (on, (a, c)) ->
                Memory.read_float mem "R" k = if on then a else c)
              data)))

let qcheck_masked_store_law =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"a masked store writes exactly the live lanes"
       ~print:print_lane_data gen_lane_data
       (fun data ->
         let masks = Array.map fst data in
         let mem =
           run_masked_lanes ~masks
             ~setup:(fun mem -> Memory.set_float mem "R" (Array.make 4 9.0))
             (fun b lane m ->
               let v, _ = snd data.(lane) in
               Builder.masked_store b ~base:"R" (Builder.idx lane)
                 (Builder.fconst v) ~mask:m)
         in
         Array.for_all Fun.id
           (Array.mapi
              (fun k (on, (v, _)) ->
                Memory.read_float mem "R" k = if on then v else 9.0)
              data)))

let qcheck_masked_roundtrip_law =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"masked load after masked store round-trips; dead lanes see \
              the passthrough"
       ~print:print_lane_data gen_lane_data
       (fun data ->
         let masks = Array.map fst data in
         let mem =
           run_masked_lanes ~masks
             ~setup:(fun mem ->
               Memory.set_float mem "S" (Array.make 4 0.0);
               Memory.set_float mem "R" (Array.make 4 0.0))
             (fun b lane m ->
               let v, _ = snd data.(lane) in
               Builder.masked_store b ~base:"S" (Builder.idx lane)
                 (Builder.fconst v) ~mask:m;
               let back =
                 Builder.masked_load b ~base:"S" (Builder.idx lane) ~mask:m
                   ~passthrough:(Builder.fconst 7.5)
               in
               Builder.store b ~base:"R" (Builder.idx lane) back)
         in
         Array.for_all Fun.id
           (Array.mapi
              (fun k (on, (v, _)) ->
                Memory.read_float mem "R" k = if on then v else 7.5)
              data)))

let test_all_false_store_noop () =
  let f =
    compile
      "kernel k(f64 x[], f64 y[], i64 i) {\n\
      \  if (x[i] > 1000000.0) { y[i] = 5.0; }\n\
       }"
  in
  let mem = Memory.create () in
  Memory.set_float mem "x" [| 1.0 |];
  Memory.set_float mem "y" [| 3.0 |];
  ignore (Eval.run f ~int_args:[ ("i", 0L) ] ~float_args:[] ~mem);
  check_bool "memory untouched" true (Memory.read_float mem "y" 0 = 3.0)

let test_masked_off_not_bounds_checked () =
  (* the guard may be exactly what keeps the access in range: a dead lane
     must not even be bounds-checked *)
  let b =
    Builder.create ~name:"oob"
      ~args:
        [ ("G", Instr.Array_arg Types.F64); ("R", Instr.Array_arg Types.F64);
          ("i", Instr.Int_arg) ] ()
  in
  let g = Builder.load b ~base:"G" (Builder.idx 0) in
  let m = Builder.cmp b Opcode.Gt g (Builder.fconst 0.0) in
  let v =
    Builder.masked_load b ~base:"G" (Builder.idx 100) ~mask:m
      ~passthrough:(Builder.fconst 7.25)
  in
  Builder.masked_store b ~base:"G" (Builder.idx 100) v ~mask:m;
  Builder.store b ~base:"R" (Builder.idx 0) v;
  let f = Builder.func b in
  Verifier.verify_exn f;
  let mem = Memory.create () in
  Memory.set_float mem "G" [| -1.0 |];
  (* guard false: lane dead *)
  Memory.set_float mem "R" [| 0.0 |];
  ignore (Eval.run f ~int_args:[ ("i", 0L) ] ~float_args:[] ~mem);
  check_bool "passthrough observed, no fault" true
    (Memory.read_float mem "R" 0 = 7.25)

let test_nan_guard_contract () =
  (* the fast-math contract behind negate_cmp: a NaN guard makes the then
     AND the else predicate false, so an if-converted branch pair writes
     nothing where a real branch would have taken the else path *)
  let f = compile abs_src in
  let mem = Memory.create () in
  Memory.set_float mem "x" [| Float.nan |];
  Memory.set_float mem "y" [| 42.0 |];
  ignore (Eval.run f ~int_args:[ ("i", 0L) ] ~float_args:[] ~mem);
  check_bool "both branches masked off" true
    (Memory.read_float mem "y" 0 = 42.0)

let test_always_true_guard_is_unmasked () =
  let guarded =
    compile
      "kernel k(f64 x[], f64 y[], i64 i) {\n\
      \  if (x[i] > 0.0 - 1000000.0) { y[i] = x[i] * 2.0 + 1.0; }\n\
       }"
  in
  let unmasked =
    compile "kernel k(f64 x[], f64 y[], i64 i) { y[i] = x[i] * 2.0 + 1.0; }"
  in
  (* the oracle draws f64 inputs from [-8, 8], so the guard is always live *)
  List.iter
    (fun seed ->
      let o =
        Oracle.compare_runs ~seed ~reference:unmasked ~candidate:guarded ()
      in
      check_int "identical memories" 0 (List.length o.Oracle.mismatches))
    [ 1; 7; 42 ]

(* ---- post-pipeline: the vectorizer preserves the laws -------------- *)

(* The cond.* kernels are counted loops; region formation (unroll) is the
   CLI's job, so tests replicate it before running the pipeline. *)
let compile_unrolled (k : Lslp_kernels.Catalog.kernel) =
  let f = Lslp_kernels.Catalog.compile k in
  ignore (Lslp_frontend.Unroll.run ~factor:4 f);
  f

let test_cond_kernels_vectorize () =
  List.iter
    (fun (k : Lslp_kernels.Catalog.kernel) ->
      check_bool
        (Fmt.str "%s vectorizes" k.key)
        true
        (vectorized_regions Config.lslp (compile_unrolled k) >= 1))
    Lslp_kernels.Catalog.conds

let test_two_masked_streams () =
  (* complementary then/else stores hit the same addresses; the seeder's
     occurrence streams must vectorize them as two independent runs *)
  let f = kernel "cond.abs" in
  ignore (Lslp_frontend.Unroll.run ~factor:4 f);
  let report, g = vectorize f in
  check_int "both streams vectorized" 2 report.Pipeline.vectorized_regions;
  let wide_masked_stores =
    count_insts
      (fun (i : Instr.t) ->
        match i.Instr.kind with
        | Instr.Masked_store (a, _, _) -> a.Instr.access_lanes > 1
        | _ -> false)
      g
  in
  check_bool "wide masked stores for then and else" true
    (wide_masked_stores >= 2);
  assert_sound ~reference:f ~candidate:g ()

let test_cond_kernels_sound () =
  List.iter
    (fun (k : Lslp_kernels.Catalog.kernel) ->
      List.iter
        (fun config ->
          let config = Config.with_validate true config in
          let f = compile_unrolled k in
          let report, g = Pipeline.run_cloned ~config f in
          (match report.Pipeline.diagnostics with
           | [] -> ()
           | ds ->
             Alcotest.failf "%s under %s: %d diagnostic(s)" k.key
               config.Config.name (List.length ds));
          assert_sound ~reference:f ~candidate:g ())
        [ Config.slp_nr; Config.slp; Config.lslp ])
    Lslp_kernels.Catalog.conds

let test_all_false_region_noop_after_vectorization () =
  let f =
    compile
      "kernel dead(f64 x[], f64 y[]) {\n\
      \  for (i64 i = 0; i < 8; i += 1) {\n\
      \    if (x[i] > 1000000.0) { y[i] = 1.0; }\n\
      \  }\n\
       }"
  in
  ignore (Lslp_frontend.Unroll.run ~factor:4 f);
  let _, g = vectorize f in
  let run h =
    let mem = Memory.create () in
    Memory.set_float mem "x" (Array.init 8 (fun k -> float_of_int k));
    Memory.set_float mem "y" (Array.make 8 3.25);
    ignore (Eval.run h ~int_args:[] ~float_args:[] ~mem);
    Array.init 8 (fun k -> Memory.read_float mem "y" k)
  in
  check_bool "scalar leaves memory untouched" true
    (run f = Array.make 8 3.25);
  check_bool "vectorized leaves memory untouched" true
    (run g = Array.make 8 3.25)

let qcheck_fuzz_cond_shapes =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60
       ~name:"random branching programs survive the pipeline"
       ~print:(fun (seed, _) -> Fmt.str "seed %d" seed)
       QCheck2.Gen.(pair (int_bound 100_000) (int_bound 6))
       (fun (seed, cfg) ->
         let st = Random.State.make [| seed; 0xc0de |] in
         let prog = Lslp_fuzz.Gen.generate ~cond_only:true st in
         let reference = Lslp_fuzz.Gen.build prog in
         let candidate = Func.clone reference in
         ignore (Lslp_frontend.Unroll.run ~factor:4 candidate);
         let config =
           Config.with_validate true
             [| Config.slp_nr; Config.slp; Config.lslp; Config.lslp_la 0;
                Config.lslp_la 2; Config.lslp_multi 1; Config.lslp_multi 2
             |].(cfg)
         in
         let report = Pipeline.run ~config candidate in
         Verifier.check_func candidate = []
         && report.Pipeline.diagnostics = []
         && Oracle.equivalent ~tol:1e-6 ~reference ~candidate ()))

let suite =
  [
    tc "if/else shares the condition and negates the compare for else"
      test_else_negates_compare;
    tc "if without else emits one mask and one masked store"
      test_no_else_single_mask;
    tc "loads under a branch become masked loads with a zero passthrough"
      test_branch_loads_masked;
    tc "nested branches compose masks with logical and" test_nested_masks_and;
    tc "branch-local declarations merge via select at the join"
      test_join_select;
    tc "a loop may not appear under a branch" test_loop_under_branch_rejected;
    tc "the if condition must be a comparison" test_condition_must_compare;
    tc "a comparison cannot be used as a value" test_compare_not_a_value;
    tc "same local at different types in the two branches is rejected"
      test_join_type_mismatch_rejected;
    qcheck_select_law;
    qcheck_masked_store_law;
    qcheck_masked_roundtrip_law;
    tc "an all-false masked store is a memory no-op" test_all_false_store_noop;
    tc "masked-off lanes are not even bounds-checked"
      test_masked_off_not_bounds_checked;
    tc "NaN guards mask off both branches (no-NaN fast-math contract)"
      test_nan_guard_contract;
    tc "an always-true guard is observationally the unmasked kernel"
      test_always_true_guard_is_unmasked;
    tc "every cond.* catalog kernel vectorizes under LSLP"
      test_cond_kernels_vectorize;
    tc "complementary then/else stores vectorize as two masked streams"
      test_two_masked_streams;
    tc "cond kernels validate and stay equivalent under the main configs"
      test_cond_kernels_sound;
    tc "an all-false region is still a no-op after vectorization"
      test_all_false_region_noop_after_vectorization;
    qcheck_fuzz_cond_shapes;
  ]
