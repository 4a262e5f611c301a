(* IR upkeep around code generation: the one-sweep DCE, codegen's dead
   sweep and the array-keyed CSE against their list-based references, the operand walkers, the
   one-probe [Key_table.find_or_add], the monomorphic [Types.equal], the
   verifier's argument lookup and the arenas it hands to the pipeline, and
   rollback at every injection point. *)

open Lslp_ir
open Lslp_core
open Helpers
module Inject = Lslp_robust.Inject
module Transact = Lslp_robust.Transact
module Key_table = Lslp_util.Key_table

let configs = [ Config.slp_nr; Config.slp; Config.lslp ]

(* Every catalog kernel, freshly compiled and unrolled by [factor]. *)
let catalog factor =
  List.map
    (fun (k : Lslp_kernels.Catalog.kernel) ->
      let f = Lslp_kernels.Catalog.compile k in
      if factor > 1 then ignore (Lslp_frontend.Unroll.run ~factor f);
      (k.Lslp_kernels.Catalog.key, f))
    Lslp_kernels.Catalog.all

let fuzz_func ?(cond_only = false) seed =
  let st = Random.State.make [| seed; 0x5eed |] in
  let f = Lslp_fuzz.Gen.build (Lslp_fuzz.Gen.generate ~cond_only st) in
  ignore (Lslp_frontend.Unroll.run ~factor:4 f);
  (f, st)

(* The block as code generation leaves it before its own DCE: run the
   pipeline, then append, in their original order, the side-effect-free
   scalars the run removed.  Their operands are defined earlier (original
   order) or survive, so the block stays def-before-use. *)
let after_codegen config (f : Func.t) =
  let before = List.map (fun b -> (b, Block.to_list b)) (Func.blocks f) in
  ignore (Pipeline.run ~config f);
  List.iter
    (fun (b, insts) ->
      let now = Block.to_list b in
      let live = Hashtbl.create 64 in
      List.iter (fun (i : Instr.t) -> Hashtbl.replace live i.Instr.id ()) now;
      let orphans =
        List.filter
          (fun (i : Instr.t) ->
            (not (Hashtbl.mem live i.Instr.id))
            && not (Instr.has_side_effect i))
          insts
      in
      Block.set_order b (now @ orphans))
    before

(* Dead chains: each store dropped with probability 1/4 (its tree may
   die with it), and after a pure instruction, with probability 1/3, a
   chain of up to three unused binops over it, some using a link twice. *)
let add_dead st (b : Block.t) =
  let out = ref [] in
  List.iter
    (fun (i : Instr.t) ->
      if not (Instr.is_store i && Random.State.int st 4 = 0) then begin
        out := i :: !out;
        if (not (Instr.has_side_effect i)) && Random.State.int st 3 = 0 then begin
          let prev = ref (Instr.Ins i) in
          for _ = 0 to Random.State.int st 3 do
            let other = if Random.State.bool st then !prev else Instr.Ins i in
            let c =
              Instr.create ~ids:(Block.ids b)
                (Instr.Binop (Opcode.Add, !prev, other))
                i.Instr.ty
            in
            out := c :: !out;
            prev := Instr.Ins c
          done
        end
      end)
    (Block.to_list b);
  Block.set_order b (List.rev !out)

(* Redundancy: after a pure instruction, with probability 1/3, a copy (a
   commutative binop's operands swapped half the time) placed at a random
   later position, and each later user rewired to the copy half the
   time.  Copies of loads that land past a store to their array must not
   merge. *)
let add_redundancy st (b : Block.t) =
  let insts = Array.of_list (Block.to_list b) in
  let n = Array.length insts in
  let extra = Array.make n [] in
  Array.iteri
    (fun k (i : Instr.t) ->
      if (not (Instr.has_side_effect i)) && Random.State.int st 3 = 0 then begin
        let c = Instr.copy ~ids:(Block.ids b) i in
        (match c.Instr.kind with
         | Instr.Binop (op, x, y)
           when Opcode.is_commutative op && Random.State.bool st ->
           Instr.set_kind c (Instr.Binop (op, y, x))
         | _ -> ());
        let p = k + Random.State.int st (n - k) in
        extra.(p) <- c :: extra.(p);
        for q = p + 1 to n - 1 do
          if Random.State.bool st then
            Instr.map_operands
              (fun v ->
                match v with
                | Instr.Ins d when d == i -> Instr.Ins c
                | _ -> v)
              insts.(q)
        done
      end)
    insts;
  Block.set_order b
    (List.concat
       (Array.to_list (Array.mapi (fun k i -> i :: List.rev extra.(k)) insts)))

let block_text b = List.map Printer.instr_to_string (Block.to_list b)

(* Run the reference and the production pass on the same block state
   (restored in between); the first disagreement, if any. *)
let differ name ~reference ~production (b : Block.t) =
  let snap = Transact.snapshot_block b in
  let want = reference b in
  let want_text = block_text b in
  Transact.restore snap;
  let got = production b in
  if got <> want then
    Some (Fmt.str "%s: removed %d, reference %d" name got want)
  else if block_text b <> want_text then
    Some (Fmt.str "%s: block differs from the reference" name)
  else None

let dce_differs =
  differ "dce" ~reference:Dce_ref.run_block ~production:Dce.run_block

let cse_differs =
  differ "cse" ~reference:Cse_ref.run_block ~production:Cse.run_block

let fail_on where = function
  | None -> ()
  | Some m -> Alcotest.failf "%s: %s" where m

let dce_tests =
  [
    tc "one-sweep DCE = fixed point: catalog x configs x unroll, after codegen"
      (fun () ->
        let total = ref 0 in
        List.iter
          (fun factor ->
            List.iter
              (fun (config : Config.t) ->
                List.iter
                  (fun (key, f) ->
                    after_codegen config f;
                    List.iter
                      (fun b ->
                        let snap = Transact.snapshot_block b in
                        total := !total + Dce_ref.run_block b;
                        Transact.restore snap;
                        fail_on
                          (Fmt.str "%s x%d %s" key factor config.Config.name)
                          (dce_differs b))
                      (Func.blocks f))
                  (catalog factor))
              configs)
          [ 1; 4 ];
        check_bool "the reference removed something" true (!total > 0));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"one-sweep DCE = fixed point on fuzz programs with dead chains"
         ~print:(fun (seed, cond_only) ->
           Fmt.str "seed %d cond_only %b" seed cond_only)
         QCheck2.Gen.(pair (int_bound 100_000) bool)
         (fun (seed, cond_only) ->
           let f, st = fuzz_func ~cond_only seed in
           List.for_all
             (fun b ->
               add_dead st b;
               match dce_differs b with
               | None -> true
               | Some m -> QCheck2.Test.fail_report m)
             (Func.blocks f)));
  ]

(* Codegen's dead sweep on [b], whose instructions are in [arena] or were
   drawn from the block's id source from [first_new] on, against
   [Dce.run_block] and the fixed-point reference on the same state: the
   same instructions must survive, in the same order. *)
let sweep_differs ~arena ~first_new (b : Block.t) =
  let fresh = Lslp_util.Id_gen.peek (Block.ids b) - first_new in
  let swept =
    List.rev
      (Codegen.sweep_dead arena ~first_new ~fresh (List.rev (Block.to_list b)))
  in
  let after dce =
    let snap = Transact.snapshot_block b in
    ignore (dce b);
    let left = Block.to_list b in
    Transact.restore snap;
    left
  in
  if not (List.equal ( == ) swept (after Dce.run_block)) then
    Some "sweep keeps other instructions than Dce.run_block"
  else if not (List.equal ( == ) swept (after Dce_ref.run_block)) then
    Some "sweep keeps other instructions than the reference"
  else None

(* A reduction whose root has no user: everything codegen emits for it is
   dead, and so is every scalar it replaces. *)
let lost_reduction_src = {|
kernel lost(f64 A[], i64 i) {
  f64 s = A[i+0] + A[i+1] + A[i+2] + A[i+3] + A[i+4] + A[i+5] + A[i+6] + A[i+7];
}
|}

let sweep_tests =
  [
    tc "codegen's dead sweep = DCE: catalog x configs x unroll, after codegen"
      (fun () ->
        List.iter
          (fun factor ->
            List.iter
              (fun (config : Config.t) ->
                List.iter
                  (fun (key, f) ->
                    let pre =
                      List.map (fun b -> (b, Arena.of_block b)) (Func.blocks f)
                    in
                    let first_new = Lslp_util.Id_gen.peek f.Func.ids in
                    after_codegen config f;
                    List.iter
                      (fun (b, arena) ->
                        fail_on
                          (Fmt.str "%s x%d %s" key factor config.Config.name)
                          (sweep_differs ~arena ~first_new b))
                      pre)
                  (catalog factor))
              configs)
          [ 1; 4 ]);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"codegen's dead sweep = DCE on fuzz programs with new values"
         ~print:(fun (seed, cond_only) ->
           Fmt.str "seed %d cond_only %b" seed cond_only)
         QCheck2.Gen.(pair (int_bound 100_000) bool)
         (fun (seed, cond_only) ->
           let f, st = fuzz_func ~cond_only seed in
           List.for_all
             (fun b ->
               (* old instructions come to read new ones (redundant copies
                  rewired in), and new dead chains hang off both *)
               let arena = Arena.of_block b in
               let first_new = Lslp_util.Id_gen.peek (Block.ids b) in
               add_redundancy st b;
               add_dead st b;
               match sweep_differs ~arena ~first_new b with
               | None -> true
               | Some m -> QCheck2.Test.fail_report m)
             (Func.blocks f)));
    tc "a reduction with an unused root: codegen leaves nothing behind"
      (fun () ->
        let f = compile lost_reduction_src in
        let b = Func.entry f in
        let probe = Lslp_telemetry.Probe.create () in
        let rs = Reduction.run ~config:Config.lslp ~probe b in
        check_bool "vectorized" true
          (List.exists (fun r -> r.Reduction.vectorized) rs);
        check_bool "codegen emitted" true
          ((Lslp_telemetry.Probe.counters probe)
             .Lslp_telemetry.Probe.instrs_emitted > 0);
        check_int "block left empty" 0 (Block.length b);
        check_int "DCE finds nothing" 0 (Dce.run_block b);
        check_int "reference finds nothing" 0 (Dce_ref.run_block b));
  ]

let cse_tests =
  [
    tc "array-keyed CSE = list-keyed reference: catalog, scalar and vectorized"
      (fun () ->
        let st = Random.State.make [| 19 |] in
        List.iter
          (fun factor ->
            List.iter
              (fun (key, f) ->
                let check what f =
                  List.iter
                    (fun b ->
                      add_redundancy st b;
                      fail_on (Fmt.str "%s x%d %s" key factor what)
                        (cse_differs b))
                    (Func.blocks f)
                in
                let _, g = vectorize f in
                check "scalar" f;
                check "lslp" g)
              (catalog factor))
          [ 1; 4 ]);
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"array-keyed CSE = list-keyed reference on fuzz programs"
         ~print:(fun (seed, cond_only) ->
           Fmt.str "seed %d cond_only %b" seed cond_only)
         QCheck2.Gen.(pair (int_bound 100_000) bool)
         (fun (seed, cond_only) ->
           let f, st = fuzz_func ~cond_only seed in
           let _, g = vectorize f in
           List.for_all
             (fun b ->
               add_redundancy st b;
               match cse_differs b with
               | None -> true
               | Some m -> QCheck2.Test.fail_report m)
             (Func.blocks f @ Func.blocks g)));
  ]

(* Every instruction of the catalog, scalar and vectorized under each
   config, plus masked fuzz programs: all instruction kinds. *)
let all_instrs () =
  let fs =
    List.concat_map
      (fun (_, f) ->
        f :: List.map (fun config -> snd (vectorize ~config f)) configs)
      (catalog 4)
    @ List.init 20 (fun s -> fst (fuzz_func ~cond_only:true s))
  in
  List.concat_map (fun f -> Func.fold_instrs (fun acc i -> i :: acc) [] f) fs

let same_values = List.equal ( == )

let walker_tests =
  [
    tc "iter_operands visits exactly Instr.operands, in order" (fun () ->
        List.iter
          (fun i ->
            let seen = ref [] in
            Instr.iter_operands (fun v -> seen := v :: !seen) i;
            if not (same_values (List.rev !seen) (Instr.operands i)) then
              Alcotest.failf "iter_operands on %s" (Printer.instr_to_string i))
          (all_instrs ()));
    tc "map_operands: once per operand, left to right, kind kept when unchanged"
      (fun () ->
        List.iter
          (fun (i : Instr.t) ->
            let ops = Instr.operands i and kind = i.Instr.kind in
            let seen = ref [] in
            Instr.map_operands (fun v -> seen := v :: !seen; v) i;
            if not (same_values (List.rev !seen) ops) then
              Alcotest.failf "map_operands calls on %s"
                (Printer.instr_to_string i);
            if i.Instr.kind != kind then
              Alcotest.failf "identity map_operands rebuilt %s"
                (Printer.instr_to_string i);
            (* a map that changes the last operand only: the kind is
               rebuilt with exactly that operand replaced *)
            if ops <> [] then begin
              let fresh = Instr.Const (Instr.Cint 7L) in
              let calls = ref 0 in
              Instr.map_operands
                (fun v ->
                  incr calls;
                  if !calls = List.length ops then fresh else v)
                i;
              let want =
                List.mapi
                  (fun j v -> if j = List.length ops - 1 then fresh else v)
                  ops
              in
              if not (same_values (Instr.operands i) want) then
                Alcotest.failf "map_operands result on %s"
                  (Printer.instr_to_string i);
              Instr.set_kind i kind
            end)
          (all_instrs ()));
  ]

let key_gen =
  QCheck2.Gen.(
    list_size (int_range 1 400)
      (array_size (int_range 1 5)
         (oneof [ int_range (-3) 3; int; pure max_int; pure min_int ])))

let key_table_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200
         ~name:"Key_table.find_or_add = get then set, across growth"
         ~print:(fun ks -> Fmt.str "%d key(s)" (List.length ks))
         key_gen
         (fun keys ->
           let one = Key_table.create 1 and two = Key_table.create 1 in
           List.iteri
             (fun j k ->
               let got = Key_table.find_or_add one (Array.copy k) j in
               let want =
                 match Key_table.get two k ~absent:(-1) with
                 | -1 ->
                   Key_table.set two (Array.copy k) j;
                   j
                 | v -> v
               in
               if got <> want then
                 QCheck2.Test.fail_reportf "key %d: find_or_add %d, get/set %d"
                   j got want)
             keys;
           Key_table.length one = Key_table.length two
           && List.for_all
                (fun k ->
                  Key_table.get one k ~absent:(-1)
                  = Key_table.get two k ~absent:(-1))
                keys));
    tc "find_or_add rejects the empty key" (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Key_table.find_or_add: empty key") (fun () ->
            ignore (Key_table.find_or_add (Key_table.create 4) [||] 0)));
  ]

let all_types =
  let scalars = Types.[ I64; F64; I32; F32; I1 ] in
  (Types.Void :: List.map (fun s -> Types.Scalar s) scalars)
  @ List.concat_map
      (fun s -> List.map (fun n -> Types.Vec (s, n)) [ 2; 3; 4; 8; 16 ])
      scalars

let verifier_tests =
  [
    tc "Types.equal = structural equality on every scalar x lanes pair"
      (fun () ->
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                if Types.equal a b <> (a = b) then
                  Alcotest.failf "Types.equal %s %s" (Types.to_string a)
                    (Types.to_string b))
              all_types)
          all_types);
    tc "a duplicated argument name: the last declaration wins" (fun () ->
        let x_int = { Instr.arg_name = "x"; arg_ty = Instr.Int_arg } in
        let x_arr = { Instr.arg_name = "x"; arg_ty = Instr.Array_arg Types.F64 } in
        let y_flt = { Instr.arg_name = "y"; arg_ty = Instr.Float_arg } in
        let y_arr = { Instr.arg_name = "y"; arg_ty = Instr.Array_arg Types.F64 } in
        let a_arr = { Instr.arg_name = "A"; arg_ty = Instr.Array_arg Types.F64 } in
        let f =
          Func.create ~name:"dup"
            ~args:[ x_int; y_arr; y_arr; x_arr; a_arr; y_flt; x_arr ]
        in
        let b = Func.entry f in
        let add =
          Instr.create ~ids:f.Func.ids
            (Instr.Binop (Opcode.Add, Instr.Arg x_int, Instr.Const (Instr.Cint 1L)))
            Types.i64
        in
        let addr base =
          { Instr.base; elt = Types.F64; index = Affine.sym "x"; access_lanes = 1 }
        in
        let load base = Instr.create ~ids:f.Func.ids (Instr.Load (addr base)) in
        let ld = load "y" Types.f64 in
        let ld2 = load "A" Types.f64 in
        let fadd =
          Instr.create ~ids:f.Func.ids
            (Instr.Binop (Opcode.Fadd, Instr.Ins ld2, Instr.Arg y_flt))
            Types.f64
        in
        List.iter (Block.append b) [ add; ld; ld2; fadd ];
        let got =
          List.map
            (fun (e : Verifier.error) -> e.Verifier.message)
            (Verifier.check_func f)
        in
        check
          Alcotest.(list string)
          "errors"
          [
            "duplicate argument name y";
            "duplicate argument name x";
            "duplicate argument name y";
            "duplicate argument name x";
            "array argument x used as scalar value";
            "y is not an array argument";
            "index symbol x is not an i64 argument";
            "index symbol x is not an i64 argument";
          ]
          got;
        match Verifier.check_func_arenas f with
        | Ok _ -> Alcotest.fail "check_func_arenas accepted it"
        | Error es ->
          check Alcotest.(list string) "same list" got
            (List.map (fun (e : Verifier.error) -> e.Verifier.message) es));
  ]

(* Same instructions in the same order, same CSR uses. *)
let arena_matches (a : Arena.t) (fresh : Arena.t) =
  Arena.size a = Arena.size fresh
  && List.for_all
       (fun k ->
         Arena.instr a k == Arena.instr fresh k
         && Arena.num_uses a k = Arena.num_uses fresh k
         && Arena.fold_users a k (fun acc u -> u :: acc) []
            = Arena.fold_users fresh k (fun acc u -> u :: acc) [])
       (List.init (Arena.size a) Fun.id)

let handoff_tests =
  [
    tc "check_func_arenas: one fresh arena per block, scalar and vectorized"
      (fun () ->
        List.iter
          (fun (key, f) ->
            List.iter
              (fun g ->
                match Verifier.check_func_arenas g with
                | Error _ -> Alcotest.failf "%s: rejected" key
                | Ok arenas ->
                  check_int (key ^ ": one per block")
                    (List.length (Func.blocks g)) (List.length arenas);
                  List.iter2
                    (fun b a ->
                      check_bool (key ^ ": block") true (Arena.block a == b);
                      check_bool (key ^ ": arena = of_block") true
                        (arena_matches a (Arena.of_block b)))
                    (Func.blocks g) arenas)
              (f :: List.map (fun config -> snd (vectorize ~config f)) configs))
          (catalog 4));
    tc "check_func_arenas on damaged IR: check_func's errors" (fun () ->
        let _, g = vectorize (kernel "motivation-multi") in
        ignore (Lslp_robust.Inject.corrupt_block (Func.entry g));
        match Verifier.check_func_arenas g with
        | Ok _ -> Alcotest.fail "accepted a duplicated instruction"
        | Error es ->
          check_bool "same list" true (es = Verifier.check_func g));
  ]

(* Every pipeline injection point, always firing and firing at random,
   over the unrolled catalog under slp and lslp: the normalized output IR
   and report of each run, digested.  The digest was taken from the
   pipeline before the verifier handed its arenas on, so a rollback that
   left a stale arena behind would move it. *)
let rollback_digest () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun point ->
      List.iter
        (fun rate ->
          List.iter
            (fun (config : Config.t) ->
              List.iter
                (fun (key, f) ->
                  let inject = Inject.make ~points:[ point ] ~rate ~seed:5 () in
                  let report, g =
                    Pipeline.run_cloned
                      ~config:(Config.with_inject inject config) f
                  in
                  Buffer.add_string buf
                    (Lslp_util.Normalize.ids
                       (Fmt.str "%s %s %g %s\n%a\n%s\n"
                          (Inject.point_name point) key rate config.Config.name
                          Pipeline.pp_report report (Printer.func_to_string g))))
                (catalog 4))
            [ Config.slp; Config.lslp ])
        [ 1.0; 0.5 ])
    Inject.all_points;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let rollback_tests =
  [
    tc "every injection point rolls back to the pinned output" (fun () ->
        check_string "digest" "fd06109d87bd4f1c2a65c7c3cd3acae2" (rollback_digest ()));
  ]

let suite =
  dce_tests @ cse_tests @ walker_tests @ key_table_tests @ verifier_tests
  @ handoff_tests @ rollback_tests @ sweep_tests
