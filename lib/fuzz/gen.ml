(* Random well-typed kernel generation for the differential fuzzer.

   Four program shapes, mirroring the pipeline's vectorization routes:

   - [Straight]: VL lanes of one commutative expression with per-lane
     random operand permutations and fold directions — the hidden
     isomorphism LSLP exists to uncover — stored to consecutive elements.
   - [Reduction]: one chain of a commutative+associative opcode folded
     over random leaves — the reduction-tree idiom.
   - [Loop]: a counted loop whose body computes one such expression per
     iteration; it only vectorizes through the unroll/region-formation
     layer.
   - [Cond]: VL lanes of data-dependent masked code, the IR if-conversion
     produces — a compare against a per-lane guard load, then guarded
     stores (complementary masked stores to the same element, optionally
     nested with an ANDed second guard), select merges and masked loads
     with passthroughs.  Drawn only by the dedicated branching fuzz arm
     ([~cond_only]) so the classic pinned-seed streams stay bit-stable.

   Programs read from arrays A/B/C and write to R/S only, so stores never
   alias loads; every program is verified well-formed before it leaves the
   generator.  Generation draws from an explicit [Random.State.t]
   (deterministic per seed; no global RNG). *)

open Lslp_ir

type elt = E_f64 | E_i64

type leaf =
  | L_load of int * int * int  (* array id, zone, stride (1 = consecutive) *)
  | L_const of float           (* distinct constant per lane *)
  | L_shared of float          (* same constant in every lane *)

type shape =
  | Straight of {
      vl : int;
      op : Opcode.binop;
      leaves : leaf list;          (* >= 2 *)
      perms : int list list;       (* per lane: permutation of leaf indices *)
      left_assoc : bool list;      (* per lane: fold direction *)
      decoy_store : bool;          (* unrelated store between the seeds *)
    }
  | Reduction of {
      r_op : Opcode.binop;
      r_leaves : leaf list;        (* >= 2 *)
      r_left : bool;
    }
  | Loop of {
      l_op : Opcode.binop;
      l_leaves : leaf list;        (* >= 2 *)
      l_left : bool;
      l_trip : int;
      l_symbolic : bool;           (* bound is the argument [n], not a const *)
    }
  | Cond of {
      c_vl : int;                  (* guarded consecutive elements (2 or 4) *)
      c_cmp : Opcode.cmp;          (* guard predicate *)
      c_guard : leaf;              (* always a load: the guard data *)
      c_thresh : float;            (* compared against a shared constant *)
      c_op : Opcode.binop;
      c_leaves : leaf list;        (* >= 2, the branch expression *)
      c_has_else : bool;           (* complementary-mask else arm *)
      c_select : bool;             (* merge via select + plain store instead
                                      of two masked stores *)
      c_masked_loads : bool;       (* branch loads carry the mask *)
      c_nested : bool;             (* second guard ANDed into the then mask *)
    }

type prog = { elt : elt; shape : shape }

let arrays = [| "A"; "B"; "C" |]

let describe (p : prog) =
  let elt = match p.elt with E_f64 -> "f64" | E_i64 -> "i64" in
  match p.shape with
  | Straight { vl; op; leaves; decoy_store; perms; _ } ->
    Fmt.str "straight %s %s vl=%d leaves=%d decoy=%b perms=%s" elt
      (Opcode.binop_name op) vl (List.length leaves) decoy_store
      (String.concat ";"
         (List.map
            (fun p -> String.concat "," (List.map string_of_int p))
            perms))
  | Reduction { r_op; r_leaves; r_left } ->
    Fmt.str "reduction %s %s leaves=%d left=%b" elt
      (Opcode.binop_name r_op) (List.length r_leaves) r_left
  | Loop { l_op; l_leaves; l_left; l_trip; l_symbolic } ->
    Fmt.str "loop %s %s leaves=%d left=%b trip=%s" elt
      (Opcode.binop_name l_op) (List.length l_leaves) l_left
      (if l_symbolic then "n" else string_of_int l_trip)
  | Cond
      { c_vl; c_cmp; c_op; c_leaves; c_has_else; c_select; c_masked_loads;
        c_nested; _ } ->
    Fmt.str
      "cond %s %s/%s vl=%d leaves=%d else=%b select=%b mloads=%b nested=%b"
      elt (Opcode.cmp_name c_cmp) (Opcode.binop_name c_op) c_vl
      (List.length c_leaves) c_has_else c_select c_masked_loads c_nested

(* ---- building ------------------------------------------------------ *)

let scalar_of_elt = function E_f64 -> Types.F64 | E_i64 -> Types.I64

let make_builder (p : prog) =
  let aty = Instr.Array_arg (scalar_of_elt p.elt) in
  Builder.create ~value_numbering:true ~name:"fuzz"
    ~args:
      [ ("R", aty); ("S", aty); ("A", aty); ("B", aty); ("C", aty);
        ("i", Instr.Int_arg); ("n", Instr.Int_arg) ] ()

let const_value elt c =
  match elt with
  | E_f64 -> Builder.fconst c
  (* keep integer constants small: products of a few leaves stay far from
     overflow, and bitwise ops see mixed patterns *)
  | E_i64 -> Builder.iconst (1 + (int_of_float (c *. 8.0) land 31))

let leaf_value b elt ~counter ~lane = function
  | L_load (arr, zone, stride) ->
    Builder.load b
      ~base:arrays.(arr mod Array.length arrays)
      (Affine.add_const ((zone * 16) + (lane * stride)) (Affine.sym counter))
  | L_const c -> const_value elt (c +. float_of_int lane)
  | L_shared c -> const_value elt c

(* Branch-body leaves: loads carry the mask (with a constant passthrough
   feeding the dead lanes), constants are unchanged. *)
let leaf_value_masked b elt ~counter ~lane ~mask = function
  | L_load (arr, zone, stride) ->
    Builder.masked_load b
      ~base:arrays.(arr mod Array.length arrays)
      (Affine.add_const ((zone * 16) + (lane * stride)) (Affine.sym counter))
      ~mask
      ~passthrough:(const_value elt 1.5)
  | (L_const _ | L_shared _) as l -> leaf_value b elt ~counter ~lane l

let fold_expr b op values left =
  match values with
  | [] -> invalid_arg "Gen.fold_expr: no leaves"
  | v0 :: rest ->
    if left then
      List.fold_left (fun acc v -> Builder.binop b op acc v) v0 rest
    else List.fold_left (fun acc v -> Builder.binop b op v acc) v0 rest

let build (p : prog) : Func.t =
  let b = make_builder p in
  (match p.shape with
   | Straight { vl = _; op; leaves; perms; left_assoc; decoy_store } ->
     List.iteri
       (fun lane (perm, left) ->
         let ordered = List.map (fun j -> List.nth leaves j) perm in
         let values =
           List.map (leaf_value b p.elt ~counter:"i" ~lane) ordered
         in
         let v = fold_expr b op values left in
         Builder.store b ~base:"R" (Affine.add_const lane (Affine.sym "i")) v;
         if decoy_store && lane = 0 then
           Builder.store b ~base:"S"
             (Affine.add_const 40 (Affine.sym "i"))
             (const_value p.elt 3.5))
       (List.combine perms left_assoc)
   | Reduction { r_op; r_leaves; r_left } ->
     let values =
       List.mapi
         (fun j l -> leaf_value b p.elt ~counter:"i" ~lane:j l)
         r_leaves
     in
     let v = fold_expr b r_op values r_left in
     Builder.store b ~base:"R" (Affine.sym "i") v
   | Loop { l_op; l_leaves; l_left; l_trip; l_symbolic } ->
     let stop =
       if l_symbolic then Block.Bound_sym "n" else Block.Bound_const l_trip
     in
     ignore
       (Builder.start_block b ~label:"loop"
          ~kind:
            (Block.Loop
               { Block.counter = "c"; l_start = 0; l_stop = stop; l_step = 1 })
          ());
     let values =
       List.mapi
         (fun j l -> leaf_value b p.elt ~counter:"c" ~lane:j l)
         l_leaves
     in
     let v = fold_expr b l_op values l_left in
     Builder.store b ~base:"R" (Affine.sym "c") v
   | Cond
       { c_vl; c_cmp; c_guard; c_thresh; c_op; c_leaves; c_has_else;
         c_select; c_masked_loads; c_nested } ->
     let elt = p.elt in
     for lane = 0 to c_vl - 1 do
       let g = leaf_value b elt ~counter:"i" ~lane c_guard in
       let m = Builder.cmp b c_cmp g (const_value elt c_thresh) in
       let store_mask =
         if c_nested then begin
           (* nested guard: a second compare over different elements of the
              same guard data, ANDed in — what a nested if flattens to *)
           let g2 = leaf_value b elt ~counter:"i" ~lane:(lane + 8) c_guard in
           let m2 =
             Builder.cmp b (Opcode.swap_cmp c_cmp) g2
               (const_value elt (c_thresh +. 1.0))
           in
           Builder.binop b Opcode.And m m2
         end
         else m
       in
       let branch_leaf lane l =
         if c_masked_loads then
           leaf_value_masked b elt ~counter:"i" ~lane ~mask:store_mask l
         else leaf_value b elt ~counter:"i" ~lane l
       in
       let then_v =
         fold_expr b c_op (List.map (branch_leaf lane) c_leaves) true
       in
       let out = Affine.add_const lane (Affine.sym "i") in
       if c_select then begin
         (* merged at the join: one unmasked store of a lane-wise select *)
         let else_v =
           if c_has_else then
             fold_expr b c_op
               (List.map (branch_leaf (lane + 4)) (List.rev c_leaves))
               false
           else const_value elt 2.5
         in
         Builder.store b ~base:"R" out (Builder.select b store_mask then_v else_v)
       end
       else begin
         Builder.masked_store b ~base:"R" out then_v ~mask:store_mask;
         if c_has_else then begin
           (* complementary arm: the negated predicate over the same guard
              value, the second masked store to the same element *)
           let nm =
             Builder.cmp b (Opcode.negate_cmp c_cmp) g (const_value elt c_thresh)
           in
           let else_v =
             fold_expr b c_op
               (List.map
                  (fun l ->
                    if c_masked_loads then
                      leaf_value_masked b elt ~counter:"i" ~lane:(lane + 4)
                        ~mask:nm l
                    else leaf_value b elt ~counter:"i" ~lane:(lane + 4) l)
                  (List.rev c_leaves))
               false
           in
           Builder.masked_store b ~base:"R" out else_v ~mask:nm
         end
       end
     done);
  let f = Builder.func b in
  Verifier.verify_exn f;
  f

(* ---- generation ---------------------------------------------------- *)

let float_ops = [| Opcode.Fadd; Opcode.Fmul; Opcode.Fmin; Opcode.Fmax |]
let int_ops =
  [| Opcode.Add; Opcode.Mul; Opcode.And; Opcode.Or; Opcode.Xor;
     Opcode.Smin; Opcode.Smax |]

let pick st arr = arr.(Random.State.int st (Array.length arr))

let gen_perm st n =
  let arr = Array.init n Fun.id in
  for k = n - 1 downto 1 do
    let j = Random.State.int st (k + 1) in
    let t = arr.(k) in
    arr.(k) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

let gen_leaf st =
  match Random.State.int st 7 with
  | 0 | 1 | 2 | 3 | 4 ->
    L_load
      ( Random.State.int st 3,
        Random.State.int st 4,
        if Random.State.int st 3 = 0 then 2 else 1 )
  | 5 -> L_const (0.5 +. Random.State.float st 3.5)
  | _ -> L_shared (0.5 +. Random.State.float st 3.5)

let gen_leaves st ~min ~max =
  let n = min + Random.State.int st (max - min + 1) in
  List.init n (fun _ -> gen_leaf st)

let all_cmps_arr = Array.of_list Opcode.all_cmps

(* The branching arm: every knob of the masked-IR surface — predicate,
   else/select/nested/masked-load mix — drawn independently. *)
let gen_cond st op =
  Cond
    {
      c_vl = (if Random.State.bool st then 2 else 4);
      c_cmp = pick st all_cmps_arr;
      c_guard =
        L_load
          ( Random.State.int st 3,
            Random.State.int st 4,
            if Random.State.int st 3 = 0 then 2 else 1 );
      c_thresh = 0.5 +. Random.State.float st 3.5;
      c_op = op;
      c_leaves = gen_leaves st ~min:2 ~max:3;
      c_has_else = Random.State.bool st;
      c_select = Random.State.bool st;
      c_masked_loads = Random.State.bool st;
      c_nested = Random.State.int st 4 = 0;
    }

let generate ?(cond_only = false) (st : Random.State.t) : prog =
  let elt = if Random.State.int st 4 = 0 then E_i64 else E_f64 in
  let op () =
    match elt with E_f64 -> pick st float_ops | E_i64 -> pick st int_ops
  in
  if cond_only then { elt; shape = gen_cond st (op ()) }
  else
  let shape =
    match Random.State.int st 4 with
    | 0 | 1 ->
      let vl = if Random.State.bool st then 2 else 4 in
      let leaves = gen_leaves st ~min:2 ~max:4 in
      let n = List.length leaves in
      Straight
        {
          vl;
          op = op ();
          leaves;
          perms = List.init vl (fun _ -> gen_perm st n);
          left_assoc = List.init vl (fun _ -> Random.State.bool st);
          decoy_store = Random.State.bool st;
        }
    | 2 ->
      Reduction
        {
          r_op = op ();
          r_leaves = gen_leaves st ~min:2 ~max:10;
          r_left = Random.State.bool st;
        }
    | _ ->
      Loop
        {
          l_op = op ();
          l_leaves = gen_leaves st ~min:2 ~max:4;
          l_left = Random.State.bool st;
          l_trip = 4 + (4 * Random.State.int st 3);
          l_symbolic = Random.State.int st 4 = 0;
        }
  in
  { elt; shape }
