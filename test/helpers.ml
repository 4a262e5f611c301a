(* Shared helpers for the test suites. *)

open Lslp_ir

let check = Alcotest.check
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tc name f = Alcotest.test_case name `Quick f

(* The instructions of a block that satisfy [p], in program order. *)
let find_all p b = List.filter p (Block.to_list b)

let is_valid f = Verifier.check_func f = []

(* Compile a kernel-language snippet. *)
let compile = Lslp_frontend.Lower.compile_string

(* Compile a catalog kernel. *)
let kernel = Lslp_kernels.Catalog.compile_key

(* Run a config on a clone, returning (report, transformed). *)
let vectorize ?(config = Lslp_core.Config.lslp) f =
  Lslp_core.Pipeline.run_cloned ~config f

(* Assert the transformed function verifies and is observationally
   equivalent to the reference on seeded random inputs. *)
let assert_sound ?(seeds = [ 1; 7; 42 ]) ~reference ~candidate () =
  (match Verifier.check_func candidate with
   | [] -> ()
   | errors ->
     Alcotest.failf "verifier rejected transformed IR: %s"
       (String.concat "; " (List.map Verifier.error_to_string errors)));
  List.iter
    (fun seed ->
      let outcome =
        Lslp_interp.Oracle.compare_runs ~seed ~reference ~candidate ()
      in
      match outcome.mismatches with
      | [] -> ()
      | m :: _ ->
        Alcotest.failf "semantic mismatch (seed %d): %s" seed
          (Fmt.str "%a" Lslp_interp.Memory.pp_mismatch m))
    seeds

(* Total static cost of the regions a config actually vectorizes (the
   Figure 10 metric: rejected regions stay scalar, contributing nothing). *)
let total_cost config f =
  let report, _ = vectorize ~config f in
  report.Lslp_core.Pipeline.total_cost

let vectorized_regions config f =
  let report, _ = vectorize ~config f in
  report.Lslp_core.Pipeline.vectorized_regions

(* Count instructions matching a predicate across every block. *)
let count_insts p (f : Func.t) =
  Func.fold_instrs (fun acc i -> if p i then acc + 1 else acc) 0 f

let is_vector_op (i : Instr.t) = Types.is_vector i.Instr.ty

let is_wide_store (i : Instr.t) =
  match i.Instr.kind with
  | Instr.Store (a, _) -> a.Instr.access_lanes > 1
  | _ -> false

let is_wide_load (i : Instr.t) =
  match i.Instr.kind with
  | Instr.Load a -> a.Instr.access_lanes > 1
  | _ -> false

(* A 24-leaf VL-8 commutative chain, built the way the benchmark's [chains]
   workload builds its largest programs: of every 7 leaves 5 loads, one
   per-lane constant and one shared constant, every third load strided;
   each lane sums the leaves in its own order.  288 instructions. *)
let long_chain st : Lslp_fuzz.Gen.prog =
  let n = 24 and vl = 8 in
  let leaf j =
    match j mod 7 with
    | 5 -> Lslp_fuzz.Gen.L_const (0.5 +. Random.State.float st 3.5)
    | 6 -> Lslp_fuzz.Gen.L_shared (0.5 +. Random.State.float st 3.5)
    | _ ->
      Lslp_fuzz.Gen.L_load
        (Random.State.int st 3, Random.State.int st 4,
         if j mod 3 = 0 then 2 else 1)
  in
  let perm () =
    let a = Array.init n Fun.id in
    for k = n - 1 downto 1 do
      let j = Random.State.int st (k + 1) in
      let t = a.(k) in
      a.(k) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  {
    Lslp_fuzz.Gen.elt = Lslp_fuzz.Gen.E_f64;
    shape =
      Lslp_fuzz.Gen.Straight
        {
          vl;
          op = Opcode.Fadd;
          leaves = List.init n leaf;
          perms = List.init vl (fun _ -> perm ());
          left_assoc = List.init vl (fun _ -> Random.State.bool st);
          decoy_store = false;
        };
  }
