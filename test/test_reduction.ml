(* Tests for horizontal-reduction vectorization and the Reduce/Shuffle
   instructions it (and gather codegen) relies on. *)

open Lslp_ir
open Lslp_core
open Helpers

let dot_src = {|
kernel dot(f64 S[], f64 A[], f64 B[], i64 i) {
  S[i] = A[i+0] * B[i+0] + A[i+1] * B[i+1]
       + (A[i+2] * B[i+2] + A[i+3] * B[i+3]);
}
|}

let count_kind p f = count_insts p f

let is_reduce (i : Instr.t) =
  match i.Instr.kind with Instr.Reduce _ -> true | _ -> false

let is_shuffle (i : Instr.t) =
  match i.Instr.kind with Instr.Shuffle _ -> true | _ -> false

let detection_tests =
  [
    tc "dot-product chain is detected" (fun () ->
        let f = compile dot_src in
        match Reduction.collect_candidates (Func.entry f) with
        | [ c ] ->
          check_bool "fadd" true (c.Reduction.cand_op = Opcode.Fadd);
          check_int "3 chain ops" 3 (List.length c.Reduction.cand_chain);
          check_int "4 leaves" 4 (List.length c.Reduction.cand_leaves)
        | cs -> Alcotest.failf "expected 1 candidate, got %d" (List.length cs));
    tc "single ops are not chains" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 A[], i64 i) { S[i] = A[i] + A[i+1]; }
|} in
        check_int "no candidates" 0
          (List.length (Reduction.collect_candidates (Func.entry f))));
    tc "escaping intermediates stop the chain" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 A[], i64 i) {
  f64 t = A[i+0] + A[i+1];
  S[i+0] = t + A[i+2] + A[i+3] + A[i+4];
  S[i+4] = t;
}
|} in
        match Reduction.collect_candidates (Func.entry f) with
        | [ c ] ->
          (* t is multi-use: it is a leaf of the big chain, not absorbed *)
          check_int "leaves" 4 (List.length c.Reduction.cand_leaves)
        | cs -> Alcotest.failf "expected 1 candidate, got %d" (List.length cs));
    tc "non-associative ops form no chains" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 A[], i64 i) {
  S[i] = A[i+0] - A[i+1] - A[i+2] - A[i+3] - A[i+4];
}
|} in
        check_int "none" 0 (List.length (Reduction.collect_candidates (Func.entry f))));
  ]

let vectorize_tests =
  [
    tc "dot product becomes wide mul + reduce" (fun () ->
        let f = compile dot_src in
        let reference = Func.clone f in
        let regions = Reduction.run ~config:Config.lslp (Func.entry f) in
        check_int "one region" 1 (List.length regions);
        check_bool "vectorized" true (List.hd regions).Reduction.vectorized;
        check_int "one reduce" 1 (count_kind is_reduce f);
        check_int "two wide loads" 2 (count_insts is_wide_load f);
        assert_sound ~reference ~candidate:f ());
    tc "leftover leaves fold as a scalar tail" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 A[], f64 B[], i64 i) {
  S[i] = A[i+0] * B[i+0] + A[i+1] * B[i+1]
       + A[i+2] * B[i+2] + A[i+3] * B[i+3] + 2.5;
}
|} in
        let reference = Func.clone f in
        ignore (Reduction.run ~config:Config.lslp (Func.entry f));
        check_int "one reduce" 1 (count_kind is_reduce f);
        (* the +2.5 survives as a scalar fadd after the reduce *)
        check_bool "scalar tail" true
          (count_insts
             (fun i ->
               Instr.binop i = Some Opcode.Fadd
               && not (Types.is_vector i.Instr.ty))
             f
           > 0);
        assert_sound ~reference ~candidate:f ());
    tc "two full chunks combine element-wise before reducing" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 A[], i64 i) {
  S[i] = A[i+0] + A[i+1] + A[i+2] + A[i+3]
       + A[i+4] + A[i+5] + A[i+6] + A[i+7];
}
|} in
        let reference = Func.clone f in
        ignore (Reduction.run ~config:Config.lslp (Func.entry f));
        check_int "one reduce" 1 (count_kind is_reduce f);
        check_bool "wide fadd combine" true
          (count_insts
             (fun i ->
               Instr.binop i = Some Opcode.Fadd && Types.is_vector i.Instr.ty)
             f
           > 0);
        assert_sound ~reference ~candidate:f ());
    tc "short chains stay scalar" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 A[], i64 i) { S[i] = A[i+0] + A[i+1] + A[i+2]; }
|} in
        let regions = Reduction.run ~config:Config.lslp (Func.entry f) in
        check_int "nothing" 0 (List.length regions);
        check_int "no reduce" 0 (count_kind is_reduce f));
    tc "gathered (non-consecutive) leaves can still pay off" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 A[], f64 B[], i64 i) {
  S[i] = A[2*i+0] * A[2*i+0] + B[2*i+0] * B[2*i+0]
       + (A[2*i+2] * A[2*i+2] + B[2*i+2] * B[2*i+2]);
}
|} in
        let reference = Func.clone f in
        ignore (Reduction.run ~config:Config.lslp (Func.entry f));
        assert_sound ~reference ~candidate:f ());
    tc "reduction root with a scalar store user is rewired" (fun () ->
        let f = compile {|
kernel k(f64 S[], f64 T[], f64 A[], i64 i) {
  f64 sum = A[i+0] + A[i+1] + A[i+2] + A[i+3];
  S[i] = sum;
  T[i+8] = sum * 2.0;
}
|} in
        let reference = Func.clone f in
        let regions = Reduction.run ~config:Config.lslp (Func.entry f) in
        check_bool "vectorized" true
          (List.exists (fun r -> r.Reduction.vectorized) regions);
        assert_sound ~reference ~candidate:f ());
    tc "pipeline runs reductions after store seeds" (fun () ->
        let f = kernel "453.hreciprocal" in
        let report, g = vectorize ~config:Config.lslp f in
        check_int "two regions" 2 report.Pipeline.vectorized_regions;
        check_int "one reduce in output" 1 (count_kind is_reduce g);
        assert_sound ~reference:f ~candidate:g ());
    tc "reductions can be disabled" (fun () ->
        let f = kernel "453.hreciprocal" in
        let config = Config.with_reductions false Config.lslp in
        let report, g = vectorize ~config f in
        check_int "one region" 1 report.Pipeline.vectorized_regions;
        check_int "no reduce" 0 (count_kind is_reduce g));
    tc "integer reductions work too" (fun () ->
        let f = compile {|
kernel k(i64 S[], i64 A[], i64 i) {
  S[i] = A[i+0] + A[i+1] + A[i+2] + A[i+3] + A[i+4] + A[i+5];
}
|} in
        let reference = Func.clone f in
        ignore (Reduction.run ~config:Config.lslp (Func.entry f));
        check_int "one reduce" 1 (count_kind is_reduce f);
        assert_sound ~reference ~candidate:f ());
  ]

let shuffle_tests =
  [
    tc "interp: shuffle permutes lanes" (fun () ->
        let f = compile {|
kernel k(f64 R[], f64 A[], i64 i) {
  R[i+0] = A[i+0] + 1.0;
  R[i+1] = A[i+1] + 1.0;
}
|} in
        (* hand-append a shuffle consuming a wide value *)
        let _, g = vectorize ~config:Config.lslp f in
        ignore g;
        (* direct semantic check instead: build one manually *)
        let b =
          Builder.create ~name:"s"
            ~args:[ ("A", Instr.Array_arg Types.F64); ("R", Instr.Array_arg Types.F64);
                    ("i", Instr.Int_arg) ] ()
        in
        let fb = Builder.func b in
        let wide =
          Instr.create ~ids:fb.Func.ids ~name:"w"
            (Instr.Load
               { Instr.base = "A"; elt = Types.F64; index = Affine.sym "i";
                 access_lanes = 2 })
            (Types.vec Types.F64 2)
        in
        let shuf =
          Instr.create ~ids:fb.Func.ids ~name:"sh"
            (Instr.Shuffle (Instr.Ins wide, [ 1; 0 ]))
            (Types.vec Types.F64 2)
        in
        let st =
          Instr.create ~ids:fb.Func.ids
            (Instr.Store
               ({ Instr.base = "R"; elt = Types.F64; index = Affine.sym "i";
                  access_lanes = 2 },
                Instr.Ins shuf))
            Types.Void
        in
        List.iter (Block.append (Func.entry fb)) [ wide; shuf; st ];
        Verifier.verify_exn fb;
        let mem = Lslp_interp.Memory.create () in
        Lslp_interp.Memory.set_float mem "A" [| 1.0; 2.0; 0.0 |];
        Lslp_interp.Memory.set_float mem "R" [| 0.0; 0.0; 0.0 |];
        ignore
          (Lslp_interp.Eval.run fb ~int_args:[ ("i", 0L) ] ~float_args:[]
             ~mem);
        check_bool "swapped" true
          (Lslp_interp.Memory.read_float mem "R" 0 = 2.0
           && Lslp_interp.Memory.read_float mem "R" 1 = 1.0));
    tc "verifier rejects out-of-range shuffle indices" (fun () ->
        let b =
          Builder.create ~name:"s"
            ~args:[ ("A", Instr.Array_arg Types.F64); ("i", Instr.Int_arg) ] ()
        in
        let fb = Builder.func b in
        let wide =
          Instr.create ~ids:fb.Func.ids
            (Instr.Load
               { Instr.base = "A"; elt = Types.F64; index = Affine.sym "i";
                 access_lanes = 2 })
            (Types.vec Types.F64 2)
        in
        let bad =
          Instr.create ~ids:fb.Func.ids
            (Instr.Shuffle (Instr.Ins wide, [ 0; 5 ]))
            (Types.vec Types.F64 2)
        in
        List.iter (Block.append (Func.entry fb)) [ wide; bad ];
        check_bool "rejected" true (not (Helpers.is_valid fb)));
    tc "permuted reuse of a vectorized column becomes one shuffle" (fun () ->
        (* both lanes multiply the same two sums, in swapped order: the
           second operand column is a pure permutation of the first (which
           vectorizes), so it must be emitted as a single shuffle *)
        let f = compile {|
kernel k(f64 R[], f64 A[], f64 B[], i64 i) {
  R[i+0] = (A[i+0] + B[i+0]) * 2.0 + (A[i+1] + B[i+1]) * 3.0;
  R[i+1] = (A[i+1] + B[i+1]) * 2.0 + (A[i+0] + B[i+0]) * 3.0;
}
|} in
        let reference = Func.clone f in
        let _, g = vectorize ~config:Config.lslp f in
        check_bool "has shuffle" true (count_kind is_shuffle g > 0);
        check_int "no extracts needed" 0
          (count_insts
             (fun i -> match i.Instr.kind with
                | Instr.Extract _ -> true | _ -> false)
             g);
        assert_sound ~reference ~candidate:g ());
    tc "interp: reduce folds all lanes" (fun () ->
        check_bool "sum" true
          (let v = Lslp_interp.Eval.VF 0.0 in
           ignore v;
           true);
        (* semantic check through a kernel *)
        let f = compile {|
kernel k(f64 S[], f64 A[], i64 i) {
  S[i] = A[i+0] + A[i+1] + A[i+2] + A[i+3];
}
|} in
        ignore (Reduction.run ~config:Config.lslp (Func.entry f));
        let mem = Lslp_interp.Memory.create () in
        Lslp_interp.Memory.set_float mem "A" [| 1.0; 2.0; 3.0; 4.0 |];
        Lslp_interp.Memory.set_float mem "S" [| 0.0 |];
        ignore
          (Lslp_interp.Eval.run f ~int_args:[ ("i", 0L) ] ~float_args:[] ~mem);
        check_bool "10.0" true (Lslp_interp.Memory.read_float mem "S" 0 = 10.0));
  ]

let suite = detection_tests @ vectorize_tests @ shuffle_tests

(* One block, three reduction chains planned against one snapshot: the
   first (gathered leaves from three strided arrays) is rejected on cost,
   the second (a dot product) vectorizes, and the third is planned only
   after that rewrite.  Regions, printed IR and counters are pinned. *)
let three_chains_src = {|
kernel three(f64 S[], f64 T[], f64 U[], f64 A[], f64 B[], f64 C[], i64 i) {
  S[i] = A[5*i+0] + B[3*i+7] + C[7*i+2] + A[9*i+11];
  T[i] = A[i+0] * B[i+0] + A[i+1] * B[i+1]
       + (A[i+2] * B[i+2] + A[i+3] * B[i+3]);
  U[i] = C[i+0] + C[i+1] + C[i+2] + C[i+3];
}
|}

let region_text (r : Reduction.region) =
  Fmt.str "%s lanes=%d cost=%d vectorized=%b not_schedulable=%b"
    r.Reduction.root_desc r.Reduction.lanes r.Reduction.cost
    r.Reduction.vectorized r.Reduction.not_schedulable

let counters_text (p : Lslp_telemetry.Probe.t) =
  let c = Lslp_telemetry.Probe.counters p in
  String.concat " "
    (List.map
       (fun (name, get) -> Fmt.str "%s=%d" name (get c))
       Lslp_telemetry.Probe.counter_fields)

let print_ir f = Lslp_util.Normalize.ids (Printer.func_to_string f)

(* Taken from the implementation that re-collected candidates and rebuilt
   the dependence graph for every candidate. *)
let three_chains_regions =
  [
    "reduce fadd x4 lanes=4 cost=4 vectorized=false not_schedulable=false";
    "reduce fadd x4 lanes=4 cost=-9 vectorized=true not_schedulable=false";
    "reduce fadd x4 lanes=4 cost=-3 vectorized=true not_schedulable=false";
  ]

let three_chains_ir =
  {|kernel three(f64 S[], f64 T[], f64 U[], f64 A[], f64 B[], f64 C[], i64 i) {
  %r0 : f64 = load A[5*i]
  %r1 : f64 = load B[3*i + 7]
  %r2 : f64 = fadd %r0, %r1
  %r3 : f64 = load C[7*i + 2]
  %r4 : f64 = fadd %r2, %r3
  %r5 : f64 = load A[9*i + 11]
  %r6 : f64 = fadd %r4, %r5
  store S[i], %r6
  %r7 : <4 x f64> = load <4 x f64> A[i]
  %r8 : <4 x f64> = load <4 x f64> B[i]
  %r9 : <4 x f64> = fmul %r7, %r8
  %r10 : f64 = reduce.fadd %r9
  store T[i], %r10
  %r11 : <4 x f64> = load <4 x f64> C[i]
  %r12 : f64 = reduce.fadd %r11
  store U[i], %r12
}|}

let snapshot_tests =
  [
    tc "three chains on one snapshot: regions, IR and counters" (fun () ->
        let f = compile three_chains_src in
        let reference = Func.clone f in
        let probe = Lslp_telemetry.Probe.create () in
        let regions =
          Reduction.run ~config:Config.lslp ~probe (Func.entry f)
        in
        check
          Alcotest.(list string)
          "regions" three_chains_regions
          (List.map region_text regions);
        check_string "printed IR" three_chains_ir (print_ir f);
        check_string "counters"
          "seeds=0 tried=0 evals=0 hits=0 misses=0 nodes=5 emitted=6 vec=0 \
           degraded=0"
          (counters_text probe);
        assert_sound ~reference ~candidate:f ());
    tc "three chains: a fault on the second chain rolls the block back"
      (fun () ->
        let f = compile three_chains_src in
        let reference = Func.clone f in
        let before = print_ir f in
        let inject =
          Lslp_robust.Inject.make ~points:[ Lslp_robust.Inject.Reduction ]
            ~rate:1.0 ~seed:0 ()
        in
        let config = Config.with_inject inject Config.lslp in
        let report = Pipeline.run ~config f in
        (* the first chain is rejected before the injection point *)
        check_int "fired once" 1 (Lslp_robust.Inject.fired inject);
        check_int "degraded" 1 report.Pipeline.degraded_regions;
        check_int "vectorized" 0 report.Pipeline.vectorized_regions;
        check_string "scalar-identical" before (print_ir f);
        assert_sound ~reference ~candidate:f ());
  ]

let suite = suite @ snapshot_tests

(* ---- roots are scalar ------------------------------------------------ *)

(* The store-seed pass emits a multi-node's chain as a fold of vector ops
   of one opcode.  That fold is no reduction tree of the input: a plan for
   it gathers vector leaves into a column, which codegen cannot emit, so a
   threshold that accepts every plan would degrade the region. *)

let unrolled factor key =
  let f = kernel key in
  if factor > 1 then ignore (Lslp_frontend.Unroll.run ~factor f);
  (Fmt.str "%s at unroll %d" key factor, f)

let accepting = Config.with_threshold 100 Config.lslp

let scalar_root_tests =
  [
    tc "a threshold that accepts every plan degrades no region" (fun () ->
        List.iter
          (fun (name, f) ->
            let report, _ = vectorize ~config:accepting f in
            check_int (name ^ ": degraded") 0 report.Pipeline.degraded_regions)
          [ unrolled 1 "453.boy-surface"; unrolled 4 "453.boy-surface";
            unrolled 1 "433.mult-su2-mat"; unrolled 4 "433.mult-su2-mat";
            unrolled 4 "loop.norm4";
            ( "24-leaf VL-8 chain",
              Lslp_fuzz.Gen.build (long_chain (Random.State.make [| 7 |])) )
          ]);
    tc "after the store seeds, every candidate root is scalar" (fun () ->
        List.iter
          (fun factor ->
            List.iter
              (fun (k : Lslp_kernels.Catalog.kernel) ->
                let name, f = unrolled factor k.Lslp_kernels.Catalog.key in
                List.iter
                  (fun (config : Config.t) ->
                    let _, g =
                      vectorize ~config:(Config.with_reductions false config) f
                    in
                    List.iter
                      (fun b ->
                        List.iter
                          (fun (c : Reduction.candidate) ->
                            let ty = c.Reduction.cand_root.Instr.ty in
                            check_bool
                              (Fmt.str "%s %s %s: %s root %a" name
                                 config.Config.name (Block.label b)
                                 (Reduction.describe c) Types.pp ty)
                              false (Types.is_vector ty))
                          (Reduction.collect_candidates b))
                      (Func.blocks g))
                  [ Config.slp_nr; Config.slp; Config.lslp ])
              Lslp_kernels.Catalog.all)
          [ 1; 4 ]);
  ]

let suite = suite @ scalar_root_tests
