(* Tests for the operand-reordering engine: pair scores, the recursive
   look-ahead score (pinned to the paper's Figure 7 example), get_best mode
   transitions, the matrix reorder (Listing 5) and the LLVM-4.0-faithful
   vanilla reorder. *)

open Lslp_ir
open Lslp_core
open Helpers

(* Build lane instructions inside one block so analyses work. *)
type env = { b : Builder.t }

let mk_env () =
  {
    b =
      Builder.create ~name:"reorder"
        ~args:
          [ ("A", Instr.Array_arg Types.I64); ("B", Instr.Array_arg Types.I64);
            ("C", Instr.Array_arg Types.I64); ("D", Instr.Array_arg Types.I64);
            ("i", Instr.Int_arg) ] ();
  }

let load env base k = Builder.load env.b ~base (Builder.idx k)
let shl env v k = Builder.binop env.b Opcode.Shl v (Builder.iconst k)
let ins = function Instr.Ins i -> i | _ -> assert false

let pair_score_tests =
  [
    tc "identical values score 2" (fun () ->
        let env = mk_env () in
        let x = load env "B" 0 in
        check_int "x,x" 2 (Reorder.pair_score x x);
        check_int "const self" 2
          (Reorder.pair_score (Builder.iconst 3) (Builder.iconst 3)));
    tc "consecutive loads score 2, non-consecutive 0" (fun () ->
        let env = mk_env () in
        let b0 = load env "B" 0 and b1 = load env "B" 1 in
        let c1 = load env "C" 1 in
        check_int "B0,B1" 2 (Reorder.pair_score b0 b1);
        check_int "B1,B0 (reverse)" 0 (Reorder.pair_score b1 b0);
        check_int "B0,C1" 0 (Reorder.pair_score b0 c1));
    tc "distinct constants score 1" (fun () ->
        check_int "1,4" 1
          (Reorder.pair_score (Builder.iconst 1) (Builder.iconst 4)));
    tc "same-opcode instructions score 1" (fun () ->
        let env = mk_env () in
        let s1 = shl env (load env "B" 0) 1 in
        let s2 = shl env (load env "C" 0) 2 in
        check_int "shl,shl" 1 (Reorder.pair_score s1 s2));
    tc "different kinds score 0" (fun () ->
        let env = mk_env () in
        let s = shl env (load env "B" 0) 1 in
        check_int "inst,const" 0 (Reorder.pair_score s (Builder.iconst 1)));
  ]

(* The paper's Figure 7: last = B[i+0] << 1; candidates are
   (B[i+1] << 2) — the matching one — and (C[i+1] << 3).  The figure's
   scores are 2 vs 1 with boolean matches; with our graded scores the
   ranking must be the same (matching candidate strictly higher). *)
let figure7_tests =
  [
    tc "figure 7 ranking" (fun () ->
        let env = mk_env () in
        let last = shl env (load env "B" 0) 1 in
        let good = shl env (load env "B" 1) 2 in
        let bad = shl env (load env "C" 1) 3 in
        let score v =
          Reorder.lookahead_score ~combine:Config.Score_sum last v ~level:1
        in
        check_bool "good > bad" true (score good > score bad);
        check_int "bad = 1 (consts only)" 1 (score bad));
    tc "level 0 degenerates to the base score" (fun () ->
        let env = mk_env () in
        let last = shl env (load env "B" 0) 1 in
        let good = shl env (load env "B" 1) 2 in
        check_int "same opclass" 1
          (Reorder.lookahead_score ~combine:Config.Score_sum last good ~level:0));
    tc "bijective pairing: squares do not outscore the diagonal" (fun () ->
        (* score(x*y, x'*y') must beat score(x*y, y'*y'): an all-pairs sum
           would tie them, the bijective pairing must not *)
        let env = mk_env () in
        let x = load env "B" 0 and y = load env "C" 0 in
        let x' = load env "B" 1 and y' = load env "C" 1 in
        let fm a b = Builder.binop env.b Opcode.Mul a b in
        let xy = fm x y in
        let xy' = fm x' y' in
        let yy' = fm y' y' in
        let score v =
          Reorder.lookahead_score ~combine:Config.Score_sum xy v ~level:1
        in
        check_bool "diagonal wins" true (score xy' > score yy'));
    tc "max combine takes the best pair only" (fun () ->
        let env = mk_env () in
        let last = shl env (load env "B" 0) 1 in
        let good = shl env (load env "B" 1) 2 in
        let sum =
          Reorder.lookahead_score ~combine:Config.Score_sum last good ~level:1
        in
        let mx =
          Reorder.lookahead_score ~combine:Config.Score_max last good ~level:1
        in
        check_bool "sum >= max" true (sum >= mx);
        check_bool "max positive" true (mx > 0));
    tc "non-commutative operands are not cross-paired" (fun () ->
        let env = mk_env () in
        let a = load env "B" 0 and b = load env "C" 0 in
        let a' = load env "B" 1 and b' = load env "C" 1 in
        let sub x y = Builder.binop env.b Opcode.Sub x y in
        let s1 = sub a b in
        let aligned = sub a' b' in
        let swapped = sub (ins b' |> fun i -> Instr.Ins i) a' in
        let score v =
          Reorder.lookahead_score ~combine:Config.Score_sum s1 v ~level:1
        in
        check_bool "aligned beats swapped" true (score aligned > score swapped));
  ]

let get_best_tests =
  [
    tc "single matching candidate is trivially chosen" (fun () ->
        let env = mk_env () in
        let b0 = load env "B" 0 and b1 = load env "B" 1 in
        let c1 = shl env (load env "C" 1) 1 in
        let best, mode =
          Reorder.get_best Config.lslp Reorder.Load_mode b0 [ c1; b1 ]
        in
        check_bool "picked b1" true
          (match best with Some v -> Instr.equal_value v b1 | None -> false);
        check_bool "mode stays LOAD" true (mode = Reorder.Load_mode));
    tc "no match fails the slot and consumes the default" (fun () ->
        let env = mk_env () in
        let b0 = load env "B" 0 in
        let c9 = load env "C" 9 in
        let best, mode =
          Reorder.get_best Config.lslp Reorder.Load_mode b0 [ c9 ]
        in
        check_bool "default returned" true
          (match best with Some v -> Instr.equal_value v c9 | None -> false);
        check_bool "mode FAILED" true (mode = Reorder.Failed_mode));
    tc "failed slots defer" (fun () ->
        let best, mode =
          Reorder.get_best Config.lslp Reorder.Failed_mode (Builder.iconst 0)
            [ Builder.iconst 1 ]
        in
        check_bool "deferred" true (best = None);
        check_bool "stays failed" true (mode = Reorder.Failed_mode));
    tc "look-ahead breaks opcode ties" (fun () ->
        let env = mk_env () in
        let last = shl env (load env "B" 0) 1 in
        let good = shl env (load env "B" 1) 4 in
        let bad = shl env (load env "C" 1) 3 in
        let best, _ =
          Reorder.get_best Config.lslp Reorder.Opcode_mode last [ bad; good ]
        in
        check_bool "good chosen" true
          (match best with Some v -> Instr.equal_value v good | None -> false));
    tc "depth 0 disables the tie-break" (fun () ->
        let env = mk_env () in
        let last = shl env (load env "B" 0) 1 in
        let good = shl env (load env "B" 1) 4 in
        let bad = shl env (load env "C" 1) 3 in
        let best, _ =
          Reorder.get_best (Config.lslp_la 0) Reorder.Opcode_mode last
            [ bad; good ]
        in
        check_bool "first match taken" true
          (match best with Some v -> Instr.equal_value v bad | None -> false));
    tc "splat mode looks for the same value" (fun () ->
        let env = mk_env () in
        let x = load env "B" 0 in
        let y = load env "C" 0 in
        let best, mode =
          Reorder.get_best Config.lslp Reorder.Splat_mode x [ y; x ]
        in
        check_bool "x found" true
          (match best with Some v -> Instr.equal_value v x | None -> false);
        check_bool "stays splat" true (mode = Reorder.Splat_mode));
    tc "init_mode classification" (fun () ->
        let env = mk_env () in
        check_bool "const" true
          (Reorder.init_mode (Builder.iconst 1) = Reorder.Const_mode);
        check_bool "load" true
          (Reorder.init_mode (load env "B" 0) = Reorder.Load_mode);
        check_bool "op" true
          (Reorder.init_mode (shl env (load env "B" 0) 1) = Reorder.Opcode_mode));
  ]

let matrix_tests =
  [
    tc "figure 2's operand matrix is straightened" (fun () ->
        (* slots x lanes: lane0 [shl(B0,1); shl(C0,2)],
           lane1 [shl(C1,3); shl(B1,4)] — LSLP must swap lane 1 *)
        let env = mk_env () in
        let s_b0 = shl env (load env "B" 0) 1 in
        let s_c0 = shl env (load env "C" 0) 2 in
        let s_c1 = shl env (load env "C" 1) 3 in
        let s_b1 = shl env (load env "B" 1) 4 in
        let matrix = [| [| s_b0; s_c1 |]; [| s_c0; s_b1 |] |] in
        let result = Reorder.reorder_matrix Config.lslp matrix in
        check_bool "slot0 = B chain" true
          (Instr.equal_value result.(0).(1) s_b1);
        check_bool "slot1 = C chain" true
          (Instr.equal_value result.(1).(1) s_c1));
    tc "lane 0 is never reordered" (fun () ->
        let env = mk_env () in
        let a = load env "B" 0 and b = load env "C" 0 in
        let a' = load env "B" 1 and b' = load env "C" 1 in
        let matrix = [| [| b; a' |]; [| a; b' |] |] in
        let result = Reorder.reorder_matrix Config.lslp matrix in
        check_bool "slot0 lane0 kept" true (Instr.equal_value result.(0).(0) b);
        check_bool "slot1 lane0 kept" true (Instr.equal_value result.(1).(0) a));
    tc "each lane's multiset of operands is preserved" (fun () ->
        let env = mk_env () in
        let vals =
          Array.init 3 (fun s ->
              Array.init 4 (fun l -> load env "B" ((s * 4) + l)))
        in
        let result = Reorder.reorder_matrix Config.lslp vals in
        for lane = 0 to 3 do
          let column m = List.init 3 (fun s -> m.(s).(lane)) in
          let key vs =
            List.sort compare
              (List.map (fun v -> (ins v).Instr.id) vs)
          in
          check_bool "same multiset" true (key (column vals) = key (column result))
        done);
    tc "splat mode engages across lanes" (fun () ->
        (* one slot is the same value in all lanes; it must stay together *)
        let env = mk_env () in
        let c = shl env (load env "D" 0) 1 in
        let b0 = load env "B" 0 and b1 = load env "B" 1
        and b2 = load env "B" 2 and b3 = load env "B" 3 in
        let matrix =
          [| [| b0; b1; c; b3 |]; [| c; c; b2; c |] |]
        in
        let result = Reorder.reorder_matrix Config.lslp matrix in
        (* slot1 should end all-c except lane0 decided by stripping *)
        let slot_of lane v =
          if Instr.equal_value result.(0).(lane) v then 0 else 1
        in
        let s_lane1 = slot_of 1 c and s_lane2 = slot_of 2 c in
        check_int "c stays in one slot" s_lane1 s_lane2);
    tc "constants prefer constants" (fun () ->
        let env = mk_env () in
        let b0 = load env "B" 0 and b1 = load env "B" 1 in
        let matrix =
          [| [| Builder.iconst 1; b1 |]; [| b0; Builder.iconst 7 |] |]
        in
        let result = Reorder.reorder_matrix Config.lslp matrix in
        check_bool "const slot" true
          (match result.(0).(1) with Instr.Const _ -> true | _ -> false);
        check_bool "load slot" true (Instr.equal_value result.(1).(1) b1));
    tc "empty matrix" (fun () ->
        check_int "no slots" 0
          (Array.length (Reorder.reorder_matrix Config.lslp [||])));
  ]

(* Vanilla (LLVM 4.0) reorder behaviors. *)
let vanilla_tests =
  [
    tc "listing 1: opcode mismatch fixed by swap" (fun () ->
        let env = mk_env () in
        let l1 = load env "B" 0 and l2 = load env "B" 1 in
        let s1 = Builder.binop env.b Opcode.Sub (load env "C" 0) (load env "C" 2) in
        let s2 = Builder.binop env.b Opcode.Sub (load env "C" 1) (load env "C" 3) in
        let add1 = Builder.binop env.b Opcode.Add s1 l1 in
        let add2 = Builder.binop env.b Opcode.Add l2 s2 in
        let left, right = Reorder.vanilla_pair [| ins add1; ins add2 |] in
        check_bool "left = subs" true
          (Instr.equal_value left.(0) s1 && Instr.equal_value left.(1) s2);
        check_bool "right = loads" true
          (Instr.equal_value right.(0) l1 && Instr.equal_value right.(1) l2));
    tc "figure 2: same-opcode operands are not touched" (fun () ->
        let env = mk_env () in
        let s_b0 = shl env (load env "B" 0) 1 in
        let s_c0 = shl env (load env "C" 0) 2 in
        let s_c1 = shl env (load env "C" 1) 3 in
        let s_b1 = shl env (load env "B" 1) 4 in
        let and1 = Builder.binop env.b Opcode.And s_b0 s_c0 in
        let and2 = Builder.binop env.b Opcode.And s_c1 s_b1 in
        let left, _right = Reorder.vanilla_pair [| ins and1; ins and2 |] in
        check_bool "lane1 left unchanged (mismatch remains)" true
          (Instr.equal_value left.(1) s_c1));
    tc "peel: lane-0 constant moves right" (fun () ->
        let env = mk_env () in
        let s = shl env (load env "B" 0) 1 in
        let s' = Builder.binop env.b Opcode.Add (load env "C" 0) (Builder.iconst 2) in
        let and1 = Builder.binop env.b Opcode.And s (Builder.iconst 17) in
        let and2 = Builder.binop env.b Opcode.And s' (Builder.iconst 19) in
        let left, right = Reorder.vanilla_pair [| ins and1; ins and2 |] in
        check_bool "lane0 left is const" true
          (match left.(0) with Instr.Const _ -> true | _ -> false);
        check_bool "lane0 right is shl" true (Instr.equal_value right.(0) s));
    tc "splat on the right is preserved" (fun () ->
        let env = mk_env () in
        let c = shl env (load env "D" 0) 1 in
        let x0 = load env "B" 0 and x1 = load env "B" 1 in
        let m0 = Builder.binop env.b Opcode.Mul x0 c in
        let m1 = Builder.binop env.b Opcode.Mul c x1 in
        let left, right = Reorder.vanilla_pair [| ins m0; ins m1 |] in
        check_bool "right all c" true
          (Instr.equal_value right.(0) c && Instr.equal_value right.(1) c);
        check_bool "left loads" true
          (Instr.equal_value left.(0) x0 && Instr.equal_value left.(1) x1));
    tc "trailing pass extends consecutive load chains" (fun () ->
        (* load a0|b0 then b1|a1: the final pass swaps lane 1 *)
        let env = mk_env () in
        let a0 = load env "B" 0 and a1 = load env "B" 1 in
        let b0 = load env "C" 0 and b1 = load env "C" 1 in
        let add1 = Builder.binop env.b Opcode.Add a0 b0 in
        let add2 = Builder.binop env.b Opcode.Add b1 a1 in
        let left, right = Reorder.vanilla_pair [| ins add1; ins add2 |] in
        check_bool "left = a0,a1" true
          (Instr.equal_value left.(0) a0 && Instr.equal_value left.(1) a1);
        check_bool "right = b0,b1" true
          (Instr.equal_value right.(0) b0 && Instr.equal_value right.(1) b1));
    tc "no_reorder keeps operands as written" (fun () ->
        let env = mk_env () in
        let a0 = load env "B" 0 and b0 = load env "C" 0 in
        let add1 = Builder.binop env.b Opcode.Add a0 b0 in
        let add2 = Builder.binop env.b Opcode.Add b0 a0 in
        let left, right = Reorder.no_reorder_pair [| ins add1; ins add2 |] in
        check_bool "kept" true
          (Instr.equal_value left.(0) a0 && Instr.equal_value left.(1) b0
           && Instr.equal_value right.(0) b0 && Instr.equal_value right.(1) a0));
  ]

(* ---- properties ---------------------------------------------------

   Randomized laws for the scoring primitives.  [Addr.consecutive] is
   directional (a, then a + lanes), so load/load pairs are legitimately
   asymmetric; every other shape must score symmetrically, and the boolean
   matcher must agree with a positive graded score. *)
let property_tests =
  let open QCheck2 in
  let pp_vdesc = function
    | `Load (a, o) -> Fmt.str "load%d[%d]" a o
    | `Const c -> Fmt.str "const%d" c
    | `Shl (a, o, k) -> Fmt.str "shl(load%d[%d],%d)" a o k
  in
  let gen_vdesc =
    Gen.oneof
      [ Gen.map2 (fun a o -> `Load (a, o)) (Gen.int_bound 1) (Gen.int_bound 7);
        Gen.map (fun c -> `Const c) (Gen.int_bound 9);
        Gen.map3
          (fun a o k -> `Shl (a, o, k))
          (Gen.int_bound 1) (Gen.int_bound 7) (Gen.int_range 1 4) ]
  in
  let arr = function 0 -> "B" | _ -> "C" in
  let materialize env = function
    | `Load (a, o) -> load env (arr a) o
    | `Const c -> Builder.iconst c
    | `Shl (a, o, k) -> shl env (load env (arr a) o) k
  in
  let is_load_desc = function
    | `Load _ -> true
    | `Const _ | `Shl _ -> false
  in
  let prop ?(count = 500) name gen print p =
    QCheck_alcotest.to_alcotest (Test.make ~count ~name ~print gen p)
  in
  let pair_gen = Gen.pair gen_vdesc gen_vdesc in
  let pair_print (a, b) = Fmt.str "(%s, %s)" (pp_vdesc a) (pp_vdesc b) in
  [
    prop "pair_score is symmetric off load/load pairs" pair_gen pair_print
      (fun (d1, d2) ->
        assume (not (is_load_desc d1 && is_load_desc d2));
        let env = mk_env () in
        let v1 = materialize env d1 and v2 = materialize env d2 in
        Reorder.pair_score v1 v2 = Reorder.pair_score v2 v1);
    prop "consecutive_or_match is symmetric off load/load pairs" pair_gen
      pair_print
      (fun (d1, d2) ->
        assume (not (is_load_desc d1 && is_load_desc d2));
        let env = mk_env () in
        let v1 = materialize env d1 and v2 = materialize env d2 in
        Reorder.consecutive_or_match v1 v2
        = Reorder.consecutive_or_match v2 v1);
    prop "matcher agrees with a positive score off load/load pairs" pair_gen
      pair_print
      (fun (d1, d2) ->
        assume (not (is_load_desc d1 && is_load_desc d2));
        let env = mk_env () in
        let v1 = materialize env d1 and v2 = materialize env d2 in
        Reorder.consecutive_or_match v1 v2 = (Reorder.pair_score v1 v2 > 0));
    prop "scores stay in the 0..2 grade range" pair_gen pair_print
      (fun (d1, d2) ->
        let env = mk_env () in
        let v1 = materialize env d1 and v2 = materialize env d2 in
        let s = Reorder.pair_score v1 v2 in
        0 <= s && s <= 2);
    prop "an identical value outscores any same-opcode sibling"
      (Gen.pair
         (Gen.pair (Gen.int_bound 1) (Gen.int_bound 7))
         (Gen.pair (Gen.int_bound 1) (Gen.int_bound 7)))
      (fun ((a1, o1), (a2, o2)) ->
        Fmt.str "shl(load%d[%d]) vs shl(load%d[%d])" a1 o1 a2 o2)
      (fun ((a1, o1), (a2, o2)) ->
        let env = mk_env () in
        let v1 = materialize env (`Shl (a1, o1, 1)) in
        let v2 = materialize env (`Shl (a2, o2, 1)) in
        (* v1 and v2 are distinct instructions even when their descriptions
           coincide, so the self pairing must strictly win *)
        Reorder.pair_score v1 v1 = 2
        && Reorder.pair_score v1 v1 > Reorder.pair_score v1 v2);
    prop "loads score directionally: 2 iff the offset steps by one"
      (Gen.pair (Gen.int_bound 7) (Gen.int_bound 7))
      (fun (o1, o2) -> Fmt.str "B[%d] vs B[%d]" o1 o2)
      (fun (o1, o2) ->
        let env = mk_env () in
        let v1 = load env "B" o1 and v2 = load env "B" o2 in
        Reorder.pair_score v1 v2 = (if o2 = o1 + 1 then 2 else 0));
  ]

(* ---- the array pool against the list-based reference ---------------- *)

(* A random operand matrix over one block: repeated constants, arguments,
   consecutive and strided (plain or masked) loads over two arrays, and
   add/mul/sub/shl binops over a shared pool of earlier values, so the
   look-ahead meets common subexpressions.  Each slot draws a column
   shape, then every lane's values are permuted across the slots so the
   reorder has work to do.  Returns the block and [columns.(slot).(lane)]. *)
let random_matrix st ~slots ~lanes =
  let b =
    Builder.create ~name:"ref"
      ~args:
        [ ("A", Instr.Array_arg Types.I64); ("B", Instr.Array_arg Types.I64);
          ("x", Instr.Int_arg); ("y", Instr.Int_arg); ("i", Instr.Int_arg) ] ()
  in
  let int n = Random.State.int st n in
  let mask = Builder.cmp b Opcode.Lt (Builder.arg b "x") (Builder.iconst 0) in
  let loads = Hashtbl.create 16 in
  let load arr off masked =
    match Hashtbl.find_opt loads (arr, off, masked) with
    | Some v -> v
    | None ->
      let base = if arr = 0 then "A" else "B" in
      let v =
        if masked then
          Builder.masked_load b ~base (Builder.idx off) ~mask
            ~passthrough:(Builder.iconst 0)
        else Builder.load b ~base (Builder.idx off)
      in
      Hashtbl.replace loads (arr, off, masked) v;
      v
  in
  let leaf () =
    match int 4 with
    | 0 -> Builder.iconst (int 3)
    | 1 -> Builder.arg b (if int 2 = 0 then "x" else "y")
    | _ -> load (int 2) (int 12) (int 4 = 0)
  in
  let shared = ref [||] in
  for _ = 1 to 3 + int 8 do
    let pick () =
      if Array.length !shared > 0 && int 3 = 0 then
        !shared.(int (Array.length !shared))
      else leaf ()
    in
    let op = [| Opcode.Add; Opcode.Mul; Opcode.Sub; Opcode.Shl |].(int 4) in
    let x = pick () in
    let y = pick () in
    shared := Array.append !shared [| Builder.binop b op x y |]
  done;
  let columns =
    Array.init slots (fun _ ->
        let arr = int 2 and off = int 8 and masked = int 5 = 0 in
        match int 6 with
        | 0 -> Array.init lanes (fun l -> load arr (off + l) masked)
        | 1 -> Array.init lanes (fun l -> load arr (off + (2 * l)) masked)
        | 2 -> Array.init lanes (fun _ -> Builder.iconst (int 2))
        | 3 -> Array.init lanes (fun _ -> Builder.arg b "x")
        | 4 ->
          Array.init lanes (fun _ ->
              !shared.(int (Array.length !shared)))
        | _ -> Array.init lanes (fun _ -> leaf ()))
  in
  for l = 1 to lanes - 1 do
    for s = slots - 1 downto 1 do
      let t = int (s + 1) in
      let v = columns.(s).(l) in
      columns.(s).(l) <- columns.(t).(l);
      columns.(t).(l) <- v
    done
  done;
  (Builder.current_block b, columns)

(* Everything one reorder call leaves behind: the matrix (or the budget
   error), the modes, the probe's score counters and the trace events.
   Traced, the sink rides on the probe, as the pipeline attaches it; the
   list reference records into the same sink directly, as [?trace]. *)
let observe ~traced run =
  let trace = Lslp_trace.Trace.create () in
  let sink = if traced then Some trace else None in
  let probe = Lslp_telemetry.Probe.create ?sink () in
  let outcome =
    match run ~probe ~sink with
    | m, modes -> Ok (m, modes)
    | exception Lslp_robust.Budget.Exhausted msg -> Error msg
  in
  let c = Lslp_telemetry.Probe.counters probe in
  ( outcome,
    (c.score_evals, c.score_hits, c.score_misses),
    List.map
      (fun (e : Lslp_trace.Trace.event) -> e.payload)
      (Lslp_trace.Trace.events trace) )

let same_outcome a b =
  match (a, b) with
  | Ok (m1, modes1), Ok (m2, modes2) ->
    modes1 = modes2
    && Array.length m1 = Array.length m2
    && Array.for_all2 (Array.for_all2 Instr.equal_value) m1 m2
  | Error e1, Error e2 -> String.equal e1 e2
  | Ok _, Error _ | Error _, Ok _ -> false

let reference_configs =
  [ Config.lslp; Config.lslp_la 0; Config.lslp_la 1; Config.lslp_la 2;
    Config.lslp_la 3;
    Config.with_score_combine Config.Score_max Config.lslp;
    Config.with_score_cache false Config.lslp;
    Config.with_score_cache false (Config.lslp_la 3) ]

(* One case: every config, traced and untraced, with no arena, the
   block's arena, and an arena missing one instruction of the matrix.
   A production reorder of another function's matrix, whose instruction
   ids overlap this one's, runs before the reference and before every
   checked call: the domain's memo table it leaves behind must never
   answer for this matrix. *)
let agrees_with_reference (seed, slots, lanes, fuel) =
  let st = Random.State.make [| seed; 0x5eed |] in
  let block, columns = random_matrix st ~slots ~lanes in
  let full = Arena.of_block block in
  let partial =
    let insts = Array.of_list (Block.to_list block) in
    let dropped = insts.(Random.State.int st (Array.length insts)) in
    let b = Block.create ~ids:(Block.ids block) () in
    Array.iter (fun i -> if not (Instr.equal i dropped) then Block.append b i)
      insts;
    Arena.of_block b
  in
  let _, other = random_matrix st ~slots ~lanes in
  let budget =
    { Lslp_robust.Budget.unlimited with
      lookahead_fuel = (if fuel = 0 then max_int else fuel) }
  in
  List.for_all
    (fun config ->
      List.for_all
        (fun traced ->
          let meter () = Lslp_robust.Budget.meter budget in
          let interleave () =
            ignore (Reorder.reorder_matrix_modes config other)
          in
          interleave ();
          let want =
            observe ~traced (fun ~probe ~sink ->
                Reorder_ref.reorder_matrix_modes ~meter:(meter ()) ~probe
                  ?trace:sink config columns)
          in
          let agree ?arena () =
            interleave ();
            let (o, c, e) =
              observe ~traced (fun ~probe ~sink:_ ->
                  Reorder.reorder_matrix_modes ~meter:(meter ()) ~probe
                    ?arena config columns)
            in
            let (wo, wc, we) = want in
            same_outcome o wo && c = wc && e = we
          in
          agree ()
          && List.for_all (fun ar -> agree ~arena:ar ()) [ full; partial ])
        [ false; true ])
    reference_configs

let reference_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:100
         ~name:"matrix reorder = list reference (matrix, modes, counters, \
                fuel, trace)"
         ~print:(fun (seed, slots, lanes, fuel) ->
           Fmt.str "seed %d, %d slots x %d lanes, fuel %d" seed slots lanes
             fuel)
         QCheck2.Gen.(
           quad (int_bound 1_000_000) (int_range 2 24) (int_range 2 8)
             (oneofl [ 0; 0; 5; 40 ]))
         agrees_with_reference);
  ]

let suite =
  pair_score_tests @ figure7_tests @ get_best_tests @ matrix_tests
  @ vanilla_tests @ property_tests @ reference_tests
