(* Seeded workload inputs.  Everything here is a pure function of the
   workload seed: the same seed gives byte-identical programs and sources. *)

open Lslp_ir
module Catalog = Lslp_kernels.Catalog
module Gen = Lslp_fuzz.Gen
module Service = Lslp_service.Service

let rng seed salt = Random.State.make [| 0x6c736c70; seed; salt |]

let shuffle st a =
  let a = Array.copy a in
  for k = Array.length a - 1 downto 1 do
    let j = Random.State.int st (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done;
  a

(* Visiting order of round [round]: a seeded permutation of [0, n). *)
let order ~seed ~round n = shuffle (rng seed (1000 + round)) (Array.init n Fun.id)

let catalog () =
  Array.of_list
    (List.map (fun (k : Catalog.kernel) -> (k.Catalog.key, k.Catalog.source))
       Catalog.all)

(* ---- chains ---------------------------------------------------------- *)

(* Leaf [j] of a chain: kinds follow a fixed pattern (of every 7 leaves 5
   loads, one per-lane constant, one constant shared by all lanes; every
   third load strided), so every seed's programs need the same mix of
   wide loads, gathers and splats; arrays, zones and values are drawn. *)
let chain_leaf st j =
  match j mod 7 with
  | 5 -> Gen.L_const (0.5 +. Random.State.float st 3.5)
  | 6 -> Gen.L_shared (0.5 +. Random.State.float st 3.5)
  | _ ->
    Gen.L_load
      (Random.State.int st 3, Random.State.int st 4, if j mod 3 = 0 then 2 else 1)

let f64_ops = [| Opcode.Fadd; Opcode.Fmul; Opcode.Fmin; Opcode.Fmax |]

let i64_ops =
  [| Opcode.Add; Opcode.Mul; Opcode.And; Opcode.Or; Opcode.Xor; Opcode.Smin;
     Opcode.Smax |]

let elt_ops =
  Array.append
    (Array.map (fun op -> (Gen.E_f64, op)) f64_ops)
    (Array.map (fun op -> (Gen.E_i64, op)) i64_ops)

let leaf_counts = [| 8; 12; 16; 20; 24 |]

let chain_prog st ~elt ~op ~vl ~n : Gen.prog =
  let leaves = List.init n (chain_leaf st) in
  let perm () = Array.to_list (shuffle st (Array.init n Fun.id)) in
  {
    Gen.elt;
    shape =
      Gen.Straight
        {
          vl;
          op;
          leaves;
          perms = List.init vl (fun _ -> perm ());
          left_assoc = List.init vl (fun _ -> Random.State.bool st);
          decoy_store = false;
        };
  }

(* Programs are stratified over the grid the workload is about: one
   program per cell of (element type and opcode: 4 f64 and 7 i64 ops) x
   (VL 4 or 8) x (8, 12, 16, 20 or 24 leaves), so two seeds differ only in
   what is random inside a cell: the arrays and values of the leaves,
   per-lane operand permutations and fold directions. *)
let chains ~seed =
  let st = rng seed 1 in
  let cells =
    List.concat_map
      (fun eo ->
        List.concat_map
          (fun vl -> List.map (fun n -> (eo, vl, n)) (Array.to_list leaf_counts))
          [ 4; 8 ])
      (Array.to_list elt_ops)
  in
  Array.of_list
    (List.map
       (fun ((elt, op), vl, n) ->
         let p = chain_prog st ~elt ~op ~vl ~n in
         (Gen.describe p, Gen.build p))
       cells)

(* ---- batch-mixed ----------------------------------------------------- *)

let batch_size = 64
let fresh_per_batch = 16
let batches_per_round = 8
let unroll = 4

let find s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then invalid_arg "Inputs.find"
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go 0

(* [source] with its kernel ("kernel NAME(...)") renamed to [fresh]. *)
let rename source fresh =
  let kw = "kernel " in
  let at = find source kw + String.length kw in
  let paren = String.index_from source at '(' in
  String.sub source 0 at ^ fresh
  ^ String.sub source paren (String.length source - paren)

let kernel_name source =
  let kw = "kernel " in
  let at = find source kw + String.length kw in
  String.sub source at (String.index_from source at '(' - at)

let job label source = { Service.label; source; unroll }
let warmup_count = List.length Catalog.all

(* The jobs that warm a fresh service's cache: every catalog source once. *)
let warmup_jobs () =
  Array.map (fun (key, source) -> job key source) (catalog ())

(* [batches_per_round] batches of [batch_size] jobs: in each batch
   [fresh_per_batch] fresh jobs — a catalog source under a seed-drawn new
   kernel name, so the cache's canonical key misses — at seeded positions,
   the rest repeats of catalog sources the warm-up already compiled.  Fresh
   and repeated jobs each walk their own seeded cycle through the catalog,
   so every seed's round holds nearly the same mix of kernels.  Returns the
   batches and, per job, whether it is fresh. *)
let batch_mixed ~seed =
  let st = rng seed 2 in
  let cat = catalog () in
  let n = Array.length cat in
  let cycle () =
    let order = shuffle st (Array.init n Fun.id) in
    let k = ref 0 in
    fun () ->
      let i = order.(!k mod n) in
      incr k;
      cat.(i)
  in
  let next_fresh = cycle () in
  let next_repeat = cycle () in
  let fresh_count = ref 0 in
  Array.init batches_per_round (fun b ->
      let fresh_slots =
        Array.sub (shuffle st (Array.init batch_size Fun.id)) 0 fresh_per_batch
      in
      Array.init batch_size (fun slot ->
          if Array.mem slot fresh_slots then begin
            let _, source = next_fresh () in
            let renamed =
              Fmt.str "%s_%d_%07x" (kernel_name source) !fresh_count
                (Random.State.bits st land 0xfffffff)
            in
            incr fresh_count;
            (job (Fmt.str "b%d.%s" b renamed) (rename source renamed), true)
          end
          else
            let key, source = next_repeat () in
            (job (Fmt.str "b%d.%s" b key) source, false)))
