(* Property-based end-to-end testing.

   A generator produces random straight-line kernels whose lanes compute the
   same commutative expression with per-lane random operand orders and tree
   shapes — precisely the hidden isomorphism LSLP exists to uncover.  The
   property: for every configuration, the pass output verifies and is
   observationally equivalent to the scalar original. *)

open Lslp_ir
open Lslp_core

(* ---- kernel descriptions ------------------------------------------ *)

type leaf =
  | L_load of int * int * int  (* array id, zone, stride (1 = consecutive) *)
  | L_const of float           (* distinct constant per lane *)
  | L_shared of float          (* same constant in every lane *)

type kdesc = {
  vl : int;
  op : Opcode.binop;
  leaves : leaf list;          (* >= 2 *)
  perms : int list list;       (* per lane: permutation of leaf indices *)
  left_assoc : bool list;      (* per lane: fold direction *)
  decoy_store : bool;          (* unrelated scalar store between the seeds *)
}

let arrays = [| "A"; "B"; "C" |]

let build_kernel (d : kdesc) : Func.t =
  let b =
    Builder.create ~name:"random"
      ~args:
        [ ("R", Instr.Array_arg Types.F64); ("S", Instr.Array_arg Types.F64);
          ("A", Instr.Array_arg Types.F64); ("B", Instr.Array_arg Types.F64);
          ("C", Instr.Array_arg Types.F64); ("i", Instr.Int_arg) ] ()
  in
  let leaf_value lane = function
    | L_load (arr, zone, stride) ->
      Builder.load b
        ~base:arrays.(arr mod Array.length arrays)
        (Affine.add_const ((zone * 16) + (lane * stride)) (Affine.sym "i"))
    | L_const c -> Builder.fconst (c +. float_of_int lane)
    | L_shared c -> Builder.fconst c
  in
  let lane_expr lane perm left =
    let ordered = List.map (fun j -> List.nth d.leaves j) perm in
    let values = List.map (leaf_value lane) ordered in
    match values with
    | [] -> assert false
    | v0 :: rest ->
      if left then List.fold_left (fun acc v -> Builder.binop b d.op acc v) v0 rest
      else
        List.fold_left (fun acc v -> Builder.binop b d.op v acc) v0 rest
  in
  List.iteri
    (fun lane (perm, left) ->
      let v = lane_expr lane perm left in
      Builder.store b ~base:"R" (Affine.add_const lane (Affine.sym "i")) v;
      if d.decoy_store && lane = 0 then
        Builder.store b ~base:"S"
          (Affine.add_const 40 (Affine.sym "i"))
          (Builder.fconst 3.5))
    (List.combine d.perms d.left_assoc);
  let f = Builder.func b in
  ignore (Cse.run f);
  Verifier.verify_exn f;
  f

(* ---- generators ---------------------------------------------------- *)

let gen_perm n =
  let open QCheck2.Gen in
  let* seed = int_bound 10_000 in
  let arr = Array.init n Fun.id in
  let st = Random.State.make [| seed |] in
  for k = n - 1 downto 1 do
    let j = Random.State.int st (k + 1) in
    let t = arr.(k) in
    arr.(k) <- arr.(j);
    arr.(j) <- t
  done;
  return (Array.to_list arr)

let gen_leaf =
  let open QCheck2.Gen in
  frequency
    [
      (5, let* arr = int_bound 2 in
          let* zone = int_bound 3 in
          let* stride = oneofl [ 1; 1; 2 ] in
          return (L_load (arr, zone, stride)));
      (1, let* c = float_range 0.5 4.0 in return (L_const c));
      (1, let* c = float_range 0.5 4.0 in return (L_shared c));
    ]

let gen_kdesc =
  let open QCheck2.Gen in
  let* vl = oneofl [ 2; 4 ] in
  let* op = oneofl [ Opcode.Fadd; Opcode.Fmul ] in
  let* nleaves = int_range 2 4 in
  let* leaves = list_repeat nleaves gen_leaf in
  let* perms = list_repeat vl (gen_perm nleaves) in
  let* left_assoc = list_repeat vl bool in
  let* decoy_store = bool in
  return { vl; op; leaves; perms; left_assoc; decoy_store }

let print_kdesc d =
  Fmt.str "vl=%d op=%s leaves=%d decoy=%b perms=%s" d.vl
    (Opcode.binop_name d.op) (List.length d.leaves) d.decoy_store
    (String.concat ";"
       (List.map
          (fun p -> String.concat "," (List.map string_of_int p))
          d.perms))

let all_configs =
  [ Config.slp_nr; Config.slp; Config.lslp; Config.lslp_la 0;
    Config.lslp_la 1; Config.lslp_multi 1; Config.lslp_multi 2 ]

let sound_under config (d : kdesc) =
  let reference = build_kernel d in
  let candidate = Func.clone reference in
  ignore (Pipeline.run ~config candidate);
  match Verifier.check_func candidate with
  | _ :: _ -> false
  | [] ->
    Lslp_interp.Oracle.equivalent ~tol:1e-6 ~reference ~candidate ()

let prop ?(count = 150) name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:print_kdesc gen_kdesc f)

(* Random reduction chains: n leaves (loads at random zones/strides and
   constants) folded left or right; the reduction pass must stay sound. *)
type rdesc = { r_leaves : leaf list; r_left : bool; r_op : Opcode.binop }

let gen_rdesc =
  let open QCheck2.Gen in
  let* n = int_range 2 10 in
  let* r_leaves = list_repeat n gen_leaf in
  let* r_left = bool in
  let* r_op = oneofl [ Opcode.Fadd; Opcode.Fmul ] in
  return { r_leaves; r_left; r_op }

let print_rdesc d =
  Fmt.str "op=%s leaves=%d left=%b" (Opcode.binop_name d.r_op)
    (List.length d.r_leaves) d.r_left

let build_reduction_kernel (d : rdesc) : Func.t =
  let b =
    Builder.create ~name:"randred"
      ~args:
        [ ("R", Instr.Array_arg Types.F64); ("S", Instr.Array_arg Types.F64);
          ("A", Instr.Array_arg Types.F64); ("B", Instr.Array_arg Types.F64);
          ("C", Instr.Array_arg Types.F64); ("i", Instr.Int_arg) ] ()
  in
  let leaf_value j = function
    | L_load (arr, zone, stride) ->
      Builder.load b
        ~base:arrays.(arr mod Array.length arrays)
        (Affine.add_const ((zone * 16) + (j * stride)) (Affine.sym "i"))
    | L_const c -> Builder.fconst (c +. float_of_int j)
    | L_shared c -> Builder.fconst c
  in
  let values = List.mapi leaf_value d.r_leaves in
  let folded =
    match values with
    | [] -> assert false
    | v0 :: rest ->
      if d.r_left then
        List.fold_left (fun acc v -> Builder.binop b d.r_op acc v) v0 rest
      else List.fold_left (fun acc v -> Builder.binop b d.r_op v acc) v0 rest
  in
  Builder.store b ~base:"R" (Affine.sym "i") folded;
  let f = Builder.func b in
  ignore (Cse.run f);
  Verifier.verify_exn f;
  f

let suite =
  List.map
    (fun config ->
      prop
        (Fmt.str "random kernels sound under %s" config.Config.name)
        (sound_under config))
    all_configs
  @ [
      prop ~count:80 "LSLP cost never above SLP-NR cost on random kernels"
        (fun d ->
          (* weaker than LSLP <= SLP, which even the paper does not claim
             globally (§5.2): against the no-reorder baseline, adding
             look-ahead reordering to a graph of commutative chains can
             only expose more isomorphism on these generated shapes *)
          let f = build_kernel d in
          let cost config =
            let report, _ = Pipeline.run_cloned ~config f in
            report.Pipeline.total_cost
          in
          cost Config.lslp <= cost Config.slp_nr);
      prop ~count:80 "deeper look-ahead never increases cost" (fun d ->
          let f = build_kernel d in
          let cost depth =
            let report, _ =
              Pipeline.run_cloned ~config:(Config.lslp_la depth) f
            in
            report.Pipeline.total_cost
          in
          cost 8 <= cost 0);
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make ~count:150
           ~name:"random reduction chains are sound under LSLP"
           ~print:print_rdesc gen_rdesc
           (fun d ->
             let reference = build_reduction_kernel d in
             let candidate = Func.clone reference in
             ignore (Pipeline.run ~config:Config.lslp candidate);
             Helpers.is_valid candidate
             && Lslp_interp.Oracle.equivalent ~tol:1e-6 ~reference ~candidate
                  ()));
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make ~count:100
           ~name:"reduction vectorization never loses TTI cycles"
           ~print:print_rdesc gen_rdesc
           (fun d ->
             let reference = build_reduction_kernel d in
             let candidate = Func.clone reference in
             ignore (Pipeline.run ~config:Config.lslp candidate);
             let o =
               Lslp_interp.Oracle.compare_runs
                 ~cost:Lslp_costmodel.Model.skylake_avx2 ~reference ~candidate
                 ()
             in
             o.candidate_cycles <= o.reference_cycles));
      prop ~count:80 "vectorization never increases simulated cycles under \
                      the TTI table" (fun d ->
          (* when the simulator charges exactly what the vectorizer
             optimized for, a profitable decision must pay off *)
          let reference = build_kernel d in
          let candidate = Func.clone reference in
          ignore (Pipeline.run ~config:Config.lslp candidate);
          let o =
            Lslp_interp.Oracle.compare_runs
              ~cost:Lslp_costmodel.Model.skylake_avx2 ~reference ~candidate ()
          in
          o.candidate_cycles <= o.reference_cycles);
    ]
