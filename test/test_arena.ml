(* Arena properties.

   The arena is a denotation-free snapshot: rebuilding the instruction view
   from it must reproduce the block byte-for-byte, and every derived table
   (CSR uses, address side table) must agree with the naive definition it
   replaced.  Random kernels come from the same generator as the end-to-end
   soundness properties (test_qcheck.ml), so the shapes exercised here are
   the ones the pipeline actually vectorizes. *)

open Lslp_ir
open Lslp_analysis


(* Naive recount of operand occurrences, straight off the block. *)
let naive_uses (block : Block.t) =
  let counts = Hashtbl.create 32 in
  Block.iter
    (fun i ->
      List.iter
        (fun v ->
          match v with
          | Instr.Ins d ->
            Hashtbl.replace counts d.Instr.id
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts d.Instr.id))
          | Instr.Const _ | Instr.Arg _ -> ())
        (Instr.operands i))
    block;
  counts

let arena_agrees (block : Block.t) =
  let a = Arena.of_block block in
  let n = Arena.size a in
  let ok = ref (match Arena.check a with Ok () -> true | Error _ -> false) in
  (* compact index <-> instruction bijection, in program order *)
  let k = ref 0 in
  Block.iter
    (fun i ->
      ok :=
        !ok
        && Arena.idx a i = !k
        && Arena.pos a i = !k
        && Arena.idx_of_id a i.Instr.id = !k
        && Arena.instr a !k == i;
      incr k)
    block;
  ok := !ok && !k = n;
  (* CSR use counts vs the naive recount *)
  let counts = naive_uses block in
  for j = 0 to n - 1 do
    let i = Arena.instr a j in
    let naive = Option.value ~default:0 (Hashtbl.find_opt counts i.Instr.id) in
    ok := !ok && Arena.num_uses a j = naive
  done;
  (* the short-circuit user walk vs the user list *)
  for j = 0 to n - 1 do
    List.iter
      (fun p ->
        ok :=
          !ok
          && Arena.exists_user a j p
             = List.exists (fun u -> p (Arena.idx a u)) (Arena.users a j))
      [ (fun _ -> true); (fun u -> u land 1 = 0);
        (fun u -> Instr.is_store (Arena.instr a u)) ]
  done;
  (* address side table vs the Addr module on the raw instructions *)
  for j = 0 to n - 1 do
    for l = 0 to n - 1 do
      match
        (Instr.address (Arena.instr a j), Instr.address (Arena.instr a l))
      with
      | Some aj, Some al ->
        ok :=
          !ok
          && Arena.consecutive a j l = Addr.consecutive aj al
          && Arena.may_alias a j l = Addr.may_alias aj al
          && Arena.element_distance a j l = Addr.element_distance aj al
      | _ ->
        ok := !ok && (not (Arena.is_memory a j) || not (Arena.is_memory a l))
    done
  done;
  !ok

(* Rebuild each block's instruction view purely from its arena, then
   compare the printed function against the original. *)
let roundtrip_identical (f : Func.t) =
  let before = Printer.func_to_string f in
  List.iter
    (fun b ->
      let a = Arena.of_block b in
      Block.set_order b (List.init (Arena.size a) (Arena.instr a)))
    (Func.blocks f);
  let after = Printer.func_to_string f in
  String.equal before after

let prop_pre (d : Test_qcheck.kdesc) =
  let f = Test_qcheck.build_kernel d in
  List.for_all arena_agrees (Func.blocks f) && roundtrip_identical f

(* The same invariants must hold on vectorized output: codegen rebuilds
   blocks wholesale, and a stale or non-dense arena there would poison
   every later pass. *)
let prop_post (d : Test_qcheck.kdesc) =
  let f = Test_qcheck.build_kernel d in
  ignore (Lslp_core.Pipeline.run ~config:Lslp_core.Config.lslp f);
  List.for_all arena_agrees (Func.blocks f) && roundtrip_identical f

let prop ?(count = 120) name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:Test_qcheck.print_kdesc
       Test_qcheck.gen_kdesc f)

(* ---- address ids -------------------------------------------------- *)

(* The interned address facts of [block] against [Addr] on the raw
   addresses, for every pair of accesses; and the ids themselves: base and
   shape ids are issued in first-seen program order (0, 1, 2, ... as new
   ones appear), which keeps seed buckets in the order they always had. *)
let address_ids_agree block =
  let a = Arena.of_block block in
  let n = Arena.size a in
  let ok = ref true in
  let first_seen tbl key =
    match Hashtbl.find_opt tbl key with
    | Some id -> id
    | None ->
      let id = Hashtbl.length tbl in
      Hashtbl.replace tbl key id;
      id
  in
  let bases = Hashtbl.create 8 and shapes = Hashtbl.create 8 in
  for k = 0 to n - 1 do
    match Instr.address (Arena.instr a k) with
    | Some ad ->
      ok :=
        !ok
        && Arena.addr_base a k = first_seen bases ad.Instr.base
        && Arena.addr_shape a k
           = first_seen shapes (Affine.terms ad.Instr.index)
    | None -> ok := !ok && Arena.addr_base a k = -1 && Arena.addr_shape a k = -1
  done;
  ok := !ok && Arena.base_count a = Hashtbl.length bases;
  for j = 0 to n - 1 do
    for l = 0 to n - 1 do
      match
        (Instr.address (Arena.instr a j), Instr.address (Arena.instr a l))
      with
      | Some aj, Some al ->
        ok :=
          !ok
          && Arena.same_array a j l = Addr.same_array aj al
          && Arena.consecutive a j l = Addr.consecutive aj al
          && Arena.may_alias a j l = Addr.may_alias aj al
          && Arena.element_distance a j l = Addr.element_distance aj al
          && Arena.same_shape a j l
             = Option.is_some (Affine.diff_const aj.Instr.index al.Instr.index)
      | _ -> ()
    done
  done;
  !ok

let address_id_tests =
  [
    Helpers.tc "address ids: catalog kernels under every config" (fun () ->
        List.iter
          (fun (k : Lslp_kernels.Catalog.kernel) ->
            List.iter
              (fun (config : Lslp_core.Config.t) ->
                let f = Lslp_kernels.Catalog.compile k in
                ignore (Lslp_frontend.Unroll.run ~factor:4 f);
                let agree stage b =
                  if not (address_ids_agree b) then
                    Alcotest.failf "%s/%s %s: address ids disagree" k.key
                      config.Lslp_core.Config.name stage
                in
                List.iter (agree "before") (Func.blocks f);
                ignore (Lslp_core.Pipeline.run ~config f);
                List.iter (agree "after") (Func.blocks f))
              Test_qcheck.all_configs)
          Lslp_kernels.Catalog.all);
    Helpers.tc "address ids: many distinct shapes in one block" (fun () ->
        (* 300 distinct shapes k*i over three arrays, each twice *)
        let b =
          Block.create ~ids:(Lslp_util.Id_gen.create ~first:1 ())
            ~label:"shapes" ()
        in
        for k = 1 to 600 do
          let index = Affine.sym ~coeff:(((k - 1) mod 300) + 1) "i" in
          let base = [| "A"; "B"; "C" |].(k mod 3) in
          Block.append b
            (Instr.create ~ids:(Block.ids b)
               (Instr.Load
                  { Instr.base; elt = Types.F64; index; access_lanes = 1 })
               Types.f64)
        done;
        Helpers.check_bool "agrees" true (address_ids_agree b);
        let a = Arena.of_block b in
        Helpers.check_int "last shape id" 299 (Arena.addr_shape a 599);
        Helpers.check_int "bases" 3 (Arena.base_count a));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100 ~name:"address ids: fuzz blocks"
         ~print:(fun seed -> Fmt.str "seed %d" seed)
         QCheck2.Gen.(int_bound 100_000)
         (fun seed ->
           let st = Random.State.make [| seed; 0x1d5 |] in
           let f =
             Lslp_fuzz.Gen.build
               (Lslp_fuzz.Gen.generate ~cond_only:(seed mod 2 = 0) st)
           in
           ignore (Lslp_frontend.Unroll.run ~factor:4 f);
           let before = List.for_all address_ids_agree (Func.blocks f) in
           ignore (Lslp_core.Pipeline.run ~config:Lslp_core.Config.lslp f);
           before
           && List.for_all address_ids_agree (Func.blocks f)
           && address_ids_agree
                (Test_analysis.mixed_memory_block st
                   (1 + Random.State.int st 80))));
  ]

let suite =
  [
    prop "arena round-trips and agrees with naive tables" prop_pre;
    prop "arena invariants survive vectorization" prop_post;
  ]

let suite = suite @ address_id_tests

(* ---- no collection the program never asked for -------------------- *)

(* OCaml 5.1 runs a whole minor collection before it allocates an array of
   more than 256 words whose initial element is a young heap block.  A
   block's instructions are young on every compile (just generated, lowered
   or cloned), so each per-block array over them must start from an
   immediate ([Block.to_array]).  With a minor heap far larger than the
   compiles below allocate, none of them may run a collection at all. *)

module Gen = Lslp_fuzz.Gen
module Config = Lslp_core.Config

(* Kernel source for a straight-line f64 block of loads, [fadd]s and
   stores, one local per instruction, so the frontend lowers it back to the
   same block; with [~loop] the block is the body of an 8-trip loop. *)
let kernel_source ?(loop = false) (f : Func.t) =
  let buf = Buffer.create 16384 in
  let ir = Printer.func_to_string f in
  Buffer.add_string buf (String.sub ir 0 (String.index ir '\n' + 1));
  if loop then Buffer.add_string buf "for (i64 j = 0; j < 8; j += 1) {\n";
  let value = function
    | Instr.Ins i -> "t" ^ string_of_int i.Instr.id
    | Instr.Arg a -> a.Instr.arg_name
    | Instr.Const (Instr.Cfloat x) ->
      let s = Printf.sprintf "%.17g" x in
      if String.contains s '.' then s else s ^ ".0"
    | Instr.Const _ -> Alcotest.fail "kernel_source: non-f64 constant"
  in
  let access (a : Instr.address) =
    a.Instr.base ^ "[" ^ Affine.to_string a.Instr.index ^ "]"
  in
  Block.iter
    (fun (i : Instr.t) ->
      let local rhs = Printf.bprintf buf "  f64 t%d = %s;\n" i.Instr.id rhs in
      match i.Instr.kind with
      | Instr.Load a -> local (access a)
      | Instr.Binop (Opcode.Fadd, x, y) -> local (value x ^ " + " ^ value y)
      | Instr.Store (a, v) ->
        Printf.bprintf buf "  %s = %s;\n" (access a) (value v)
      | _ -> Alcotest.failf "kernel_source: %s" (Printer.instr_to_string i))
    (List.hd (Func.blocks f));
  if loop then Buffer.add_string buf "}\n";
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections

let no_forced_collection () =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 4 * 1024 * 1024 };
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      let prog = Helpers.long_chain (Random.State.make [| 7 |]) in
      let source = kernel_source (Gen.build prog) in
      let loop_source = kernel_source ~loop:true (Gen.build prog) in
      Helpers.check_bool "source lowers to over 256 instructions" true
        (Func.num_instrs (Lslp_frontend.Lower.compile_string source) > 256);
      (* nothing vectorizes, so the validator walks all 288 instructions *)
      let scalar = Config.with_threshold (-1000) Config.lslp in
      (* a pool worker compiles under the caller's minor heap; the first
         batch resizes the parked worker domain to it, a collection of its
         own, so that batch runs before the count starts and the counted
         one reuses the resized domain *)
      let svc =
        Lslp_service.Service.create
          ~pool:{ Lslp_service.Pool.default_config with domains = 1 }
          scalar
      in
      let batch label source unroll =
        Lslp_service.Service.batch svc
          [| { Lslp_service.Service.label; source; unroll } |]
      in
      ignore (batch "chain" source 0);
      (* the end of a major cycle empties every minor heap; start the
         count at the start of a fresh one *)
      Gc.full_major ();
      let before = minor_collections () in
      List.iter
        (fun config ->
          let f = Gen.build prog in
          Helpers.check_bool "block over 256 instructions" true
            (Block.length (List.hd (Func.blocks f)) > 256);
          ignore (Lslp_core.Pipeline.run ~config f))
        [ Config.slp_nr; Config.slp; Config.lslp;
          Config.with_validate true Config.lslp;
          Config.with_validate true scalar ];
      (* the same block as a loop body, unrolled by 4 *)
      let looped = Lslp_frontend.Lower.compile_string loop_source in
      ignore (Lslp_frontend.Unroll.run ~factor:4 looped);
      ignore (Lslp_core.Pipeline.run ~config:Config.lslp looped);
      let outcomes = batch "looped chain" loop_source 4 in
      let during = minor_collections () - before in
      (match outcomes with
       | [| Lslp_service.Pool.Done s |] ->
         Helpers.check_bool "the service compiled the looped chain" false
           s.Lslp_service.Service.from_cache
       | _ -> Alcotest.fail "the service job did not complete");
      Helpers.check_int "minor collections during the compiles" 0 during)

let suite =
  suite
  @ [
      Alcotest.test_case
        "no minor collection forced on a block over 256 instructions"
        `Quick no_forced_collection;
    ]

(* A block is its one instruction array, and codegen installs a fresh one:
   an arena and a transaction snapshot taken before [Codegen.run] still
   read the pre-codegen instructions after the commit, and the snapshot
   restores the printed IR byte for byte. *)
let survives_codegen () =
  let f = Gen.build (Helpers.long_chain (Random.State.make [| 11 |])) in
  let b = Func.entry f in
  let text = Printer.func_to_string f in
  let before = Block.to_list b in
  let arena = Arena.of_block b in
  let snap = Lslp_robust.Transact.snapshot_block b in
  let seed =
    match Lslp_core.Seeds.collect ~arena Config.lslp b with
    | seed :: _ -> seed
    | [] -> Alcotest.fail "the chain has no seed"
  in
  let deps = Depgraph.build_arena arena in
  let graph, _ = Lslp_core.Graph_builder.build ~deps Config.lslp b seed in
  (match Lslp_core.Codegen.run ~deps graph b with
   | Lslp_core.Codegen.Vectorized -> ()
   | Lslp_core.Codegen.Not_schedulable | Lslp_core.Codegen.Failed _ ->
     Alcotest.fail "codegen did not commit");
  Helpers.check_bool "codegen rewrote the block" true
    (Printer.func_to_string f <> text);
  Helpers.check_int "arena size" (List.length before) (Arena.size arena);
  List.iteri
    (fun k (i : Instr.t) ->
      Helpers.check_bool "arena reads the pre-codegen instruction" true
        (Arena.instr arena k == i);
      Helpers.check_int "its index" k (Arena.idx arena i))
    before;
  Lslp_robust.Transact.restore snap;
  Helpers.check_string "restored IR" text (Printer.func_to_string f);
  Helpers.check_bool "the very same instructions" true
    (List.equal ( == ) before (Block.to_list b))

let suite =
  suite
  @ [
      Alcotest.test_case
        "an arena and a snapshot taken before codegen outlive the commit"
        `Quick survives_codegen;
    ]
