(* Tests for the IR verifier and printer. *)

open Lslp_ir
open Helpers

let base_func () =
  Builder.create ~name:"v"
    ~args:[ ("A", Instr.Array_arg Types.I64); ("F", Instr.Array_arg Types.F64);
            ("i", Instr.Int_arg); ("x", Instr.Float_arg) ] ()

let errors f = List.length (Verifier.check_func f)

(* Malformed functions, one defect each, built past the builder's checks. *)
let with_bad make =
  let b = base_func () in
  let f = Builder.func b in
  List.iter (Block.append (Func.entry f)) (make b);
  f

(* an instruction numbered by the builder's function *)
let create b = Instr.create ~ids:(Builder.func b).Func.ids

let addr ?(lanes = 1) base elt index =
  { Instr.base; elt; index; access_lanes = lanes }

let malformed =
  [
    ( "use before def",
      fun () ->
        let b = base_func () in
        let v = Builder.load b ~base:"A" (Builder.idx 0) in
        let w = Builder.binop b Opcode.Add v (Builder.iconst 1) in
        Builder.store b ~base:"A" (Builder.idx 1) w;
        let f = Builder.func b in
        Block.set_order (Func.entry f) (List.rev (Block.to_list (Func.entry f)));
        f );
    ( "operand type mismatch",
      fun () ->
        with_bad (fun b ->
            let v = Builder.load b ~base:"F" (Builder.idx 0) in
            [ create b (Instr.Binop (Opcode.Add, v, Builder.iconst 1))
                Types.i64 ]) );
    ( "unknown array",
      fun () ->
        with_bad (fun b ->
            [ create b (Instr.Load (addr "Z" Types.I64 Affine.zero))
                Types.i64 ]) );
    ( "index symbol that is not an i64 argument",
      fun () ->
        with_bad (fun b ->
            [ create b (Instr.Load (addr "A" Types.I64 (Affine.sym "x")))
                Types.i64 ]) );
    ( "wrong element type for array",
      fun () ->
        with_bad (fun b ->
            [ create b (Instr.Load (addr "F" Types.I64 Affine.zero))
                Types.i64 ]) );
    ( "buildvec arity mismatch",
      fun () ->
        with_bad (fun b ->
            [ create b
                (Instr.Buildvec [ Builder.iconst 1 ])
                (Types.vec Types.I64 2) ]) );
    ( "extract lane out of range",
      fun () ->
        with_bad (fun b ->
            let wide =
              create b
                (Instr.Load (addr ~lanes:2 "A" Types.I64 Affine.zero))
                (Types.vec Types.I64 2)
            in
            [ wide; create b (Instr.Extract (Instr.Ins wide, 5)) Types.i64 ])
    );
    ( "duplicate instruction in block",
      fun () ->
        with_bad (fun b ->
            match Builder.load b ~base:"A" (Builder.idx 0) with
            | Instr.Ins i -> [ i ]
            | Instr.Const _ | Instr.Arg _ -> assert false) );
    ( "store with non-void type",
      fun () ->
        with_bad (fun b ->
            [ create b
                (Instr.Store (addr "A" Types.I64 Affine.zero, Builder.iconst 1))
                Types.i64 ]) );
  ]

(* Defects only the verifier's loop, label, argument and vector checks
   see; with [malformed], the inputs of the reference agreement. *)
let malformed_more =
  let loop_block ?(label = "l") ?(counter = "k") ?(stop = Block.Bound_const 4)
      ?(step = 1) () ids =
    Block.create ~ids ~label
      ~kind:(Block.Loop { Block.counter; l_start = 0; l_stop = stop; l_step = step })
      ()
  in
  let with_blocks blocks () =
    let f = Builder.func (base_func ()) in
    List.iter (fun block -> Func.add_block f (block f.Func.ids)) blocks;
    f
  in
  [
    ("loop step", with_blocks [ loop_block ~step:0 () ]);
    ("loop counter shadows", with_blocks [ loop_block ~counter:"i" () ]);
    ("loop bound unknown", with_blocks [ loop_block ~stop:(Block.Bound_sym "m") () ]);
    ("loop bound float", with_blocks [ loop_block ~stop:(Block.Bound_sym "x") () ]);
    ( "duplicate labels",
      with_blocks [ loop_block ~label:"l" (); loop_block ~label:"l" () ] );
    ( "cross-block use",
      fun () ->
        let b = base_func () in
        let v = Builder.load b ~base:"A" (Builder.idx 0) in
        ignore (Builder.start_block b ());
        Builder.store b ~base:"A" (Builder.idx 1) v;
        Builder.func b );
    ( "instruction in two blocks",
      fun () ->
        let b = base_func () in
        let v = Builder.load b ~base:"A" (Builder.idx 0) in
        let w = Builder.binop b Opcode.Add v (Builder.iconst 1) in
        let next = Builder.start_block b () in
        (match w with
         | Instr.Ins i -> Block.append next i
         | Instr.Const _ | Instr.Arg _ -> assert false);
        Builder.store b ~base:"A" (Builder.idx 1) w;
        Builder.func b );
    ( "self use",
      fun () ->
        with_bad (fun b ->
            let i = create b (Instr.Splat (Builder.iconst 1)) Types.i64 in
            Instr.set_kind i
              (Instr.Binop (Opcode.Add, Instr.Ins i, Builder.iconst 1));
            [ i ]) );
    ( "duplicate arguments",
      fun () ->
        let f =
          Func.create ~name:"dup"
            ~args:
              [ { Instr.arg_name = "A"; arg_ty = Instr.Array_arg Types.I64 };
                { Instr.arg_name = "A"; arg_ty = Instr.Int_arg } ]
        in
        Block.append (Func.entry f)
          (Instr.create ~ids:f.Func.ids
             (Instr.Load (addr "A" Types.I64 (Affine.sym "A")))
             Types.i64);
        f );
    ( "vector kinds",
      fun () ->
        with_bad (fun b ->
            let v2 = Types.vec Types.I64 2 in
            let wide =
              create b
                (Instr.Load (addr ~lanes:2 "A" Types.I64 Affine.zero)) v2
            in
            let w = Instr.Ins wide and one = Builder.iconst 1 in
            [ wide;
              create b (Instr.Splat one) Types.i64;
              create b (Instr.Shuffle (w, [ 0; 3; 1 ])) v2;
              create b (Instr.Reduce (Opcode.Sub, w)) Types.i64;
              create b (Instr.Extract (one, 0)) Types.i64;
              create b (Instr.Cmp (Opcode.Lt, w, one)) Types.i64;
              create b (Instr.Select (one, w, w)) v2;
              create b
                (Instr.Masked_load (addr ~lanes:0 "A" Types.I1 Affine.zero, one, w))
                v2;
              create b
                (Instr.Masked_store (addr "x" Types.F64 Affine.zero, one, one))
                Types.i64 ]) );
  ]

let verifier_tests =
  [
    tc "accepts well-formed code" (fun () ->
        let b = base_func () in
        let v = Builder.load b ~base:"A" (Builder.idx 0) in
        let w = Builder.binop b Opcode.Add v (Builder.iconst 1) in
        Builder.store b ~base:"A" (Builder.idx 1) w;
        check_int "no errors" 0 (errors (Builder.func b)));
  ]
  @ List.map
      (fun (what, make) ->
        tc ("rejects " ^ what) (fun () ->
            check_bool "errors" true (errors (make ()) > 0)))
      malformed
  @ [
    tc "verify_exn raises with all errors" (fun () ->
        let b = base_func () in
        let f = Builder.func b in
        let bad =
          create b
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
          ignore (create b (Instr.Unop (Opcode.Neg, v)) Types.i64)
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
          Instr.create ~ids:(Lslp_util.Id_gen.create ())
            (Instr.Buildvec []) (Types.vec Types.I64 2)
        in
        check_bool "prints" true
          (String.length (Printer.instr_to_string bad) > 0));
  ]

(* ---- agreement with the reference verifier ------------------------ *)

module Ref = Verifier_ref

(* An accepted block's arena against one built from [Block.to_list] on a
   copy of the block: the same instructions (physically) at the same
   indices, with the same use lists. *)
let arena_as_listed what (b : Block.t) (a : Arena.t) =
  let insts = Block.to_list b in
  let copy = Block.create ~ids:(Block.ids b) () in
  List.iter (Block.append copy) insts;
  let r = Arena.of_block copy in
  let same k (i : Instr.t) =
    Arena.instr a k == i
    && Arena.idx a i = k
    && Arena.idx r i = k
    && List.equal ( == ) (Arena.users a k) (Arena.users r k)
  in
  if
    not
      (Arena.size a = List.length insts
      && List.for_all2 same (List.init (Arena.size a) Fun.id) insts)
  then
    Alcotest.failf "%s: block %s: arena differs from one built from its list"
      what (Block.label b)

(* Both verifiers, on one function: the same errors (message and
   instruction) in the same order, or both accept it, and then every
   returned arena reads its block as listed. *)
let check_same_errors what (f : Func.t) =
  let result = Verifier.check_func_arenas f in
  let got =
    match result with
    | Ok _ -> []
    | Error es -> List.map (fun (e : Verifier.error) -> (e.instr, e.message)) es
  in
  let want =
    List.map (fun (e : Ref.error) -> (e.Ref.instr, e.Ref.message)) (Ref.check_func f)
  in
  let same (i, m) (i', m') = Option.equal ( == ) i i' && String.equal m m' in
  if not (List.equal same got want) then
    Alcotest.failf "%s: verifiers disagree@.reference: %a@.verifier:  %a" what
      Fmt.(Dump.list string) (List.map snd want)
      Fmt.(Dump.list string) (List.map snd got);
  match result with
  | Ok arenas -> List.iter2 (arena_as_listed what) (Func.blocks f) arenas
  | Error _ -> ()

(* A function and what each configuration makes of it. *)
let with_vectorized (what, f) =
  (what, f)
  :: List.map
       (fun config ->
         (what ^ " " ^ config.Lslp_core.Config.name, snd (vectorize ~config f)))
       Lslp_core.Config.[ slp_nr; slp; lslp ]

(* The corpus, as compiled: the catalog and fuzz programs unrolled by 4,
   and a 288-instruction chain. *)
let inputs () =
  List.map
    (fun (k : Lslp_kernels.Catalog.kernel) ->
      let f = Lslp_kernels.Catalog.compile k in
      ignore (Lslp_frontend.Unroll.run ~factor:4 f);
      (k.Lslp_kernels.Catalog.key, f))
    Lslp_kernels.Catalog.all
  @ List.map
      (fun seed ->
        let st = Random.State.make [| seed; 0x7e51 |] in
        let f =
          Lslp_fuzz.Gen.build
            (Lslp_fuzz.Gen.generate ~cond_only:(seed mod 2 = 0) st)
        in
        ignore (Lslp_frontend.Unroll.run ~factor:4 f);
        (Fmt.str "fuzz %d" seed, f))
      (List.init 60 Fun.id)
  @ [ ( "24-leaf VL-8 chain",
        Lslp_fuzz.Gen.build (long_chain (Random.State.make [| 7 |])) ) ]

let programs () = List.concat_map with_vectorized (inputs ())

(* [visit] after every region commit of [f] under [config]: per block,
   seed by seed, the graph is built and [Codegen.run] rewrites the block
   whatever the cost, so every state a commit can leave is visited.  A
   failed rewrite is rolled back. *)
let each_commit config (f : Func.t) visit =
  List.iter
    (fun block ->
      let consumed = Hashtbl.create 16 in
      let rec next () =
        let arena = Arena.of_block block in
        let fresh (s : Lslp_core.Seeds.seed) =
          Array.for_all
            (fun (i : Instr.t) ->
              (not (Hashtbl.mem consumed i.Instr.id)) && Arena.mem arena i)
            s
        in
        match List.filter fresh (Lslp_core.Seeds.collect ~arena config block) with
        | [] -> ()
        | seed :: _ ->
          Array.iter (fun (i : Instr.t) -> Hashtbl.replace consumed i.id ()) seed;
          let deps = Lslp_analysis.Depgraph.build_arena arena in
          let graph, _ = Lslp_core.Graph_builder.build ~deps config block seed in
          let snap = Lslp_robust.Transact.snapshot_block block in
          (match Lslp_core.Codegen.run ~deps graph block with
           | Lslp_core.Codegen.Vectorized -> visit ()
           | Lslp_core.Codegen.Not_schedulable -> ()
           | Lslp_core.Codegen.Failed _ -> Lslp_robust.Transact.restore snap);
          next ()
      in
      next ())
    (Func.blocks f)

let agreement_tests =
  [
    tc "reference agreement: catalog and fuzz programs" (fun () ->
        List.iter (fun (what, f) -> check_same_errors what f) (programs ()));
    tc "reference agreement: the function after every region commit"
      (fun () ->
        List.iter
          (fun (what, f) ->
            List.iter
              (fun (config : Lslp_core.Config.t) ->
                let g = Func.clone f in
                let commits = ref 0 in
                each_commit config g (fun () ->
                    incr commits;
                    check_same_errors
                      (Fmt.str "%s %s commit %d" what config.name !commits)
                      g))
              Lslp_core.Config.[ slp_nr; slp; lslp ])
          (inputs ()));
    tc "reference agreement: malformed functions" (fun () ->
        List.iter
          (fun (what, make) -> check_same_errors what (make ()))
          (malformed @ malformed_more));
    tc "reference agreement: every corrupt_block damage" (fun () ->
        List.iter
          (fun (what, f) ->
            List.iteri
              (fun k _ ->
                let g = Func.clone f in
                if Lslp_robust.Inject.corrupt_block (List.nth (Func.blocks g) k)
                then check_same_errors (Fmt.str "%s block %d" what k) g)
              (Func.blocks f))
          (programs ()));
  ]

let suite = verifier_tests @ printer_tests @ agreement_tests
