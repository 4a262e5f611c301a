(* Tests for address analysis (SCEV-lite) and the dependence graph. *)

open Lslp_ir
open Lslp_analysis
open Helpers

let addr ?(base = "A") ?(lanes = 1) k : Instr.address =
  { Instr.base; elt = Types.I64;
    index = Affine.add_const k (Affine.sym "i"); access_lanes = lanes }

let addr_sym ?(base = "A") sym : Instr.address =
  { Instr.base; elt = Types.I64; index = Affine.sym sym; access_lanes = 1 }

let addr_tests =
  [
    tc "consecutive scalar accesses" (fun () ->
        check_bool "A[i], A[i+1]" true (Addr.consecutive (addr 0) (addr 1));
        check_bool "A[i+1], A[i]" false (Addr.consecutive (addr 1) (addr 0));
        check_bool "A[i], A[i+2]" false (Addr.consecutive (addr 0) (addr 2)));
    tc "consecutive after a vector access" (fun () ->
        check_bool "<2> at i then i+2" true
          (Addr.consecutive (addr ~lanes:2 0) (addr 2)));
    tc "different arrays never consecutive" (fun () ->
        check_bool "A vs B" false
          (Addr.consecutive (addr 0) (addr ~base:"B" 1)));
    tc "symbolically different indices not consecutive" (fun () ->
        check_bool "A[i] vs A[j]" false
          (Addr.consecutive (addr_sym "i") (addr_sym "j")));
    tc "element_distance" (fun () ->
        check (Alcotest.option Alcotest.int) "3" (Some 3)
          (Addr.element_distance (addr 0) (addr 3));
        check (Alcotest.option Alcotest.int) "cross-array" None
          (Addr.element_distance (addr 0) (addr ~base:"B" 3)));
    tc "may_alias exact and ranges" (fun () ->
        check_bool "same" true (Addr.may_alias (addr 0) (addr 0));
        check_bool "disjoint" false (Addr.may_alias (addr 0) (addr 1));
        check_bool "vector overlap" true
          (Addr.may_alias (addr ~lanes:2 0) (addr 1));
        check_bool "vector disjoint" false
          (Addr.may_alias (addr ~lanes:2 0) (addr 2)));
    tc "may_alias conservative on symbolic difference" (fun () ->
        check_bool "A[i] vs A[j]" true
          (Addr.may_alias (addr_sym "i") (addr_sym "j")));
    tc "different arrays never alias" (fun () ->
        check_bool "A vs B" false (Addr.may_alias (addr 0) (addr ~base:"B" 0)));
    tc "must_alias" (fun () ->
        check_bool "same" true (Addr.must_alias (addr 2) (addr 2));
        check_bool "different offset" false (Addr.must_alias (addr 2) (addr 3)));
    tc "sort_by_offset orders accesses" (fun () ->
        match Addr.sort_by_offset [ (addr 2, "c"); (addr 0, "a"); (addr 1, "b") ] with
        | Some sorted ->
          check (Alcotest.list Alcotest.string) "order" [ "a"; "b"; "c" ]
            (List.map snd sorted)
        | None -> Alcotest.fail "expected sortable");
    tc "sort_by_offset rejects mixed arrays" (fun () ->
        check_bool "None" true
          (Addr.sort_by_offset [ (addr 0, ()); (addr ~base:"B" 1, ()) ] = None));
    tc "consecutive_run" (fun () ->
        check_bool "run" true (Addr.consecutive_run [ addr 0; addr 1; addr 2 ]);
        check_bool "gap" false (Addr.consecutive_run [ addr 0; addr 2 ]);
        check_bool "singleton" true (Addr.consecutive_run [ addr 5 ]));
  ]

(* A function with a store between two loads of the same location. *)
let dep_function () =
  compile {|
kernel k(f64 A[], f64 R[], i64 i) {
  f64 x = A[i];
  A[i] = x * 2.0;
  f64 y = A[i];
  R[i] = y + x;
}
|}

(* load A -> store R[i] -> load R[i] -> store R[i+1]: contracting {loads}
   and {stores} creates LOADS -> STORES -> LOADS, a cycle *)
let cyclic_groups () =
  let f = compile {|
kernel k(f64 A[], f64 R[], i64 i) {
  f64 x = A[i];
  R[i+0] = x;
  f64 y = R[i+0];
  R[i+1] = y;
}
|} in
  let deps = Depgraph.build (Func.entry f) in
  ( deps,
    Block.find_all Instr.is_load (Func.entry f),
    Block.find_all Instr.is_store (Func.entry f) )

(* Codegen's contraction shape: each group one unit, every other
   instruction a singleton unit in program order, keys = earliest member
   position. *)
let contract deps groups =
  let a = Depgraph.arena deps in
  let n = Arena.size a in
  let unit_of = Array.make n (-1) in
  List.iteri
    (fun g members ->
      List.iter (fun i -> unit_of.(Arena.idx a i) <- g) members)
    groups;
  let units = ref (List.length groups) in
  for k = 0 to n - 1 do
    if unit_of.(k) < 0 then begin
      unit_of.(k) <- !units;
      incr units
    end
  done;
  let key = Array.make !units max_int in
  for k = n - 1 downto 0 do
    key.(unit_of.(k)) <- k
  done;
  (unit_of, key)

let schedulable deps groups =
  let unit_of, key = contract deps groups in
  Depgraph.schedule deps ~unit_of ~key <> None

(* The block's instructions in the order the all-singleton contraction
   schedules them (unit k is position k): original order wherever the
   dependences allow it. *)
let stable_order block =
  let deps = Depgraph.build block in
  let unit_of, key = contract deps [] in
  match Depgraph.schedule deps ~unit_of ~key with
  | Some order ->
    List.map (Arena.instr (Depgraph.arena deps)) (Array.to_list order)
  | None -> Alcotest.fail "acyclic block reported cyclic"

(* Reference for [Depgraph.schedule]: unit edges from every transitive
   pair (O(n^2) [reaches] queries), then a Kahn loop that rescans every
   unit for the ready one with the least key on each step. *)
let reference_schedule deps ~unit_of ~(key : int array) =
  let n = Arena.size (Depgraph.arena deps) in
  let units = Array.length key in
  let preds = Array.make units [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let u = unit_of.(i) and v = unit_of.(j) in
      if u <> v && Depgraph.reaches deps i j && not (List.mem v preds.(u))
      then preds.(u) <- v :: preds.(u)
    done
  done;
  let emitted = Array.make units false in
  let order = ref [] in
  let rec loop remaining =
    if remaining = 0 then Some (Array.of_list (List.rev !order))
    else begin
      let best = ref (-1) in
      for u = 0 to units - 1 do
        if (not emitted.(u))
           && List.for_all (fun p -> emitted.(p)) preds.(u)
           && (!best = -1 || key.(u) < key.(!best))
        then best := u
      done;
      if !best < 0 then None
      else begin
        emitted.(!best) <- true;
        order := !best :: !order;
        loop (remaining - 1)
      end
    end
  in
  loop units

let agrees deps ~unit_of ~key =
  Depgraph.schedule deps ~unit_of ~key = reference_schedule deps ~unit_of ~key

(* Every seed graph of every block of [f] under [config], contracted the
   way codegen contracts it. *)
let graphs_agree config f =
  List.for_all
    (fun block ->
      let arena = Arena.of_block block in
      List.for_all
        (fun seed ->
          let deps = Depgraph.build_arena arena in
          let graph, _ =
            Lslp_core.Graph_builder.build ~deps config block seed
          in
          let unit_of, key = Lslp_core.Codegen.units graph arena in
          agrees deps ~unit_of ~key)
        (Lslp_core.Seeds.collect ~arena config block))
    (Func.blocks f)

(* Random contractions of every block of [f]: each instruction joins one
   of a random number of units, keys are drawn from a small range so ties
   (broken by unit number) are common, and cyclic contractions arise
   whenever a dependence path leaves and re-enters a unit. *)
let random_contractions_agree st f =
  List.for_all
    (fun block ->
      let deps = Depgraph.build block in
      let n = Block.length block in
      let units = 1 + Random.State.int st (max n 1) in
      let unit_of = Array.init n (fun _ -> Random.State.int st units) in
      let key = Array.init units (fun _ -> Random.State.int st 4) in
      agrees deps ~unit_of ~key)
    (Func.blocks f)

let gen_prop ~cond_only name =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name
       ~print:(fun (seed, cfg) -> Fmt.str "seed %d config %d" seed cfg)
       QCheck2.Gen.(
         pair (int_bound 100_000)
           (int_bound (List.length Test_qcheck.all_configs - 1)))
       (fun (seed, cfg) ->
         let st = Random.State.make [| seed; 0x5ced |] in
         let f = Lslp_fuzz.Gen.build (Lslp_fuzz.Gen.generate ~cond_only st) in
         ignore (Lslp_frontend.Unroll.run ~factor:4 f);
         graphs_agree (List.nth Test_qcheck.all_configs cfg) f
         && random_contractions_agree st f))

(* A block of [n] instructions mixing loads, adds over random earlier
   values (long data edges) and stores to A, some at a symbolic index that
   aliases every A access: dependences cross every 64-bit word boundary of
   the closure rows. *)
let closure_block n =
  let b =
    Builder.create ~name:"closure"
      ~args:
        [ ("A", Instr.Array_arg Types.F64); ("B", Instr.Array_arg Types.F64);
          ("i", Instr.Int_arg); ("j", Instr.Int_arg) ]
  in
  let st = Random.State.make [| n |] in
  let values = ref [||] in
  let pick () = !values.(Random.State.int st (Array.length !values)) in
  let index () =
    if Random.State.int st 4 = 0 then Affine.sym "j"
    else Builder.idx (Random.State.int st 4)
  in
  for k = 0 to n - 1 do
    match if k = 0 then 0 else Random.State.int st 4 with
    | 0 ->
      let base = if Random.State.bool st then "A" else "B" in
      values := Array.append !values [| Builder.load b ~base (index ()) |]
    | 1 | 2 ->
      let sum = Builder.binop b Opcode.Fadd (pick ()) (pick ()) in
      values := Array.append !values [| sum |]
    | _ -> Builder.store b ~base:"A" (index ()) (pick ())
  done;
  Func.entry (Builder.func b)

(* Transitive closure by BFS over direct dependences recomputed from the
   instructions themselves (operands; may-aliasing pairs with a store). *)
let naive_closure block =
  let insts = Array.of_list (Block.to_list block) in
  let n = Array.length insts in
  let pos id =
    let rec go k =
      if k = n then -1 else if insts.(k).Instr.id = id then k else go (k + 1)
    in
    go 0
  in
  let preds =
    Array.mapi
      (fun i ins ->
        let data =
          List.filter_map
            (fun v ->
              match Instr.value_id v with
              | Some id when pos id >= 0 -> Some (pos id)
              | _ -> None)
            (Instr.operands ins)
        in
        let mem =
          List.filter
            (fun j ->
              match (Instr.address insts.(j), Instr.address ins) with
              | Some aj, Some ai ->
                (Instr.is_store ins || Instr.is_store insts.(j))
                && Addr.may_alias aj ai
              | _ -> false)
            (List.init i Fun.id)
        in
        data @ mem)
      insts
  in
  Array.init n (fun i ->
      let seen = Array.make n false in
      let rec visit = function
        | [] -> ()
        | j :: rest ->
          if seen.(j) then visit rest
          else begin
            seen.(j) <- true;
            visit (rest @ preds.(j))
          end
      in
      visit preds.(i);
      seen)

let depgraph_tests =
  [
    tc "data dependence is transitive" (fun () ->
        let f = compile {|
kernel k(f64 A[], i64 i) {
  f64 x = A[i];
  f64 y = x * 2.0;
  f64 z = y + 1.0;
  A[i+1] = z;
}
|} in
        let deps = Depgraph.build (Func.entry f) in
        let insts = Block.to_list (Func.entry f) in
        let first = List.hd insts in
        let last = List.nth insts (List.length insts - 1) in
        check_bool "store depends on load" true
          (Depgraph.depends deps last ~on:first);
        check_bool "load does not depend on store" false
          (Depgraph.depends deps first ~on:last));
    tc "memory dependence: store blocks load reordering" (fun () ->
        let f = dep_function () in
        let deps = Depgraph.build (Func.entry f) in
        let insts = Block.to_list (Func.entry f) in
        let store = List.find Instr.is_store insts in
        let second_load =
          List.find
            (fun i ->
              Instr.is_load i
              && Block.position_exn (Func.entry f) i
                 > Block.position_exn (Func.entry f) store)
            insts
        in
        check_bool "2nd load depends on store" true
          (Depgraph.depends deps second_load ~on:store));
    tc "independent detects intra-bundle dependences" (fun () ->
        let f = compile {|
kernel k(f64 A[], i64 i) {
  f64 x = A[i];
  f64 y = x * 2.0;
  A[i+1] = y;
}
|} in
        let deps = Depgraph.build (Func.entry f) in
        let insts = Block.to_list (Func.entry f) in
        let x = List.nth insts 0 and y = List.nth insts 1 in
        check_bool "x,y dependent" false (Depgraph.independent deps [ x; y ]);
        check_bool "singleton ok" true (Depgraph.independent deps [ x ]));
    tc "loads from distinct arrays independent" (fun () ->
        let f = compile {|
kernel k(f64 A[], f64 B[], f64 R[], i64 i) {
  R[i+0] = A[i] * 1.0;
  R[i+1] = B[i] * 1.0;
}
|} in
        let deps = Depgraph.build (Func.entry f) in
        let loads = Block.find_all Instr.is_load (Func.entry f) in
        check_bool "independent" true (Depgraph.independent deps loads));
    tc "schedule accepts legal bundles" (fun () ->
        let f = kernel "motivation-loads" in
        let deps = Depgraph.build (Func.entry f) in
        let loads = Block.find_all Instr.is_load (Func.entry f) in
        let stores = Block.find_all Instr.is_store (Func.entry f) in
        check_bool "loads+stores bundled" true
          (schedulable deps [ loads; stores ]));
    tc "schedule rejects cyclic groups" (fun () ->
        let deps, loads, stores = cyclic_groups () in
        check_int "two loads" 2 (List.length loads);
        check_bool "cycle rejected" false (schedulable deps [ loads; stores ]));
    tc "schedule is stable when legal" (fun () ->
        let f = dep_function () in
        let before = Block.to_list (Func.entry f) in
        let order = stable_order (Func.entry f) in
        check_bool "unchanged" true
          (List.for_all2 Instr.equal before order));
    tc "schedule fixes def-after-use" (fun () ->
        let b =
          Builder.create ~name:"swapped"
            ~args:[ ("A", Instr.Array_arg Types.I64); ("i", Instr.Int_arg) ]
        in
        let x = Builder.load b ~base:"A" (Builder.idx 0) in
        let y = Builder.binop b Opcode.Add x (Builder.iconst 1) in
        Builder.store b ~base:"A" (Builder.idx 1) y;
        let f = Builder.func b in
        (* scramble: move the load after its user *)
        let insts = Block.to_list (Func.entry f) in
        Block.set_order (Func.entry f)
          (match insts with
           | [ ld; add; st ] -> [ add; ld; st ]
           | _ -> insts);
        check_bool "broken before" false (Verifier.is_valid f);
        Block.set_order (Func.entry f) (stable_order (Func.entry f));
        check_bool "fixed after" true (Verifier.is_valid f));
    tc "bit-packed closure matches BFS" (fun () ->
        List.iter
          (fun n ->
            let block = closure_block n in
            check_int "block size" n (Block.length block);
            let deps = Depgraph.build block in
            let naive = naive_closure block in
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                if Depgraph.reaches deps i j <> naive.(i).(j) then
                  Alcotest.failf "n=%d: reaches %d %d = %b, BFS says %b" n i j
                    (Depgraph.reaches deps i j) naive.(i).(j)
              done
            done)
          [ 1; 7; 8; 63; 64; 65; 128; 129 ]);
    tc "reference order: catalog graphs" (fun () ->
        List.iter
          (fun (k : Lslp_kernels.Catalog.kernel) ->
            List.iter
              (fun (config : Lslp_core.Config.t) ->
                if not (graphs_agree config (Lslp_kernels.Catalog.compile k))
                then
                  Alcotest.failf "%s/%s: schedule differs from reference"
                    k.key config.Lslp_core.Config.name)
              Test_qcheck.all_configs)
          Lslp_kernels.Catalog.all);
    tc "reference order: cyclic groups" (fun () ->
        let deps, loads, stores = cyclic_groups () in
        let unit_of, key = contract deps [ loads; stores ] in
        check_bool "both None" true
          (Depgraph.schedule deps ~unit_of ~key = None
           && reference_schedule deps ~unit_of ~key = None));
    gen_prop ~cond_only:false "reference order: straight-line";
    gen_prop ~cond_only:true "reference order: branching";
  ]

let suite = addr_tests @ depgraph_tests
