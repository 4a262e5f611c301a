(* Region formation: unroll counted loops by the vector factor.

   The (L)SLP algorithm is block-local, so a loop body with one store per
   iteration never exposes a consecutive store run to the seed collector.
   Unrolling by the vector factor VF manufactures exactly the region shape
   the paper's pipeline consumes:

   - the main loop keeps its Loop kind with the step scaled by VF and the
     bound trimmed to a multiple of VF iterations; its body is VF copies of
     the original body with the counter substituted [c -> c + j*step] in
     every address (values are copied with {!Instr.copy}, so any future
     per-instruction metadata rides along);
   - the remaining [trip mod VF] iterations are fully unrolled into a
     straight epilogue block with the counter pinned to its constant value;
   - loops whose whole trip count is <= VF are fully unrolled into straight
     code (constant subscripts can then seed across iterations).

   Only constant-bound loops are transformed; symbolic-bound loops are left
   intact and simply never vectorize.  The pass is purely structural — it
   does not run the verifier or any cleanup, so drivers decide when to
   re-check. *)

open Lslp_ir
module Int_table = Lslp_util.Int_table

(* Append one copy of a loop body to [dst], addresses rewritten through
   [subst_index].  [slot] maps each body instruction's id to its position;
   an operand naming a body instruction is redirected to that position's
   copy.  Regions are self-contained, so every Ins operand refers to an
   earlier instruction of the same block, which is already copied. *)
let clone_into dst ~slot ~subst_index (body : Instr.t array) n =
  let copies = Array.make n (Instr.Const (Instr.Cint 0L)) in
  let filled = ref (-1) in
  let remap (v : Instr.value) =
    match v with
    | Instr.Ins i ->
      let k = Int_table.get slot i.Instr.id ~absent:(-1) in
      if k >= 0 && k <= !filled then copies.(k) else v
    | Instr.Const _ | Instr.Arg _ -> v
  in
  for k = 0 to n - 1 do
    let i' = Instr.copy ~ids:(Block.ids dst) body.(k) in
    copies.(k) <- Instr.Ins i';
    filled := k;
    Instr.map_operands remap i';
    Instr.map_address_index subst_index i';
    Block.append dst i'
  done

let unroll_block ~factor (f : Func.t) (b : Block.t) =
  match Block.loop_info b with
  | None -> false
  | Some li -> (
    match Block.trip_count li with
    | None | Some 0 -> false
    | Some tc ->
      let counter = li.Block.counter in
      let start = li.Block.l_start and step = li.Block.l_step in
      let shift j =
        Affine.subst counter (Affine.add_const (j * step) (Affine.sym counter))
      in
      let pin m = Affine.subst counter (Affine.const (start + (m * step))) in
      let ids = Block.ids b in
      (* [b] is only replaced, never changed: its array is read in place *)
      let body = Block.instrs b and n = Block.length b in
      let slot = Int_table.create n in
      for k = 0 to n - 1 do Int_table.set slot body.(k).Instr.id k done;
      let clone dst subst_index = clone_into dst ~slot ~subst_index body n in
      if tc <= factor then begin
        (* full unroll: iteration m runs with the counter at start+m*step *)
        let flat = Block.create ~ids ~label:(Block.label b ^ ".full") () in
        for m = 0 to tc - 1 do
          clone flat (pin m)
        done;
        Func.replace_block f b [ flat ];
        true
      end
      else begin
        let main_iters = tc - (tc mod factor) in
        let main =
          Block.create ~ids
            ~label:(Block.label b ^ ".x" ^ string_of_int factor)
            ~kind:
              (Block.Loop
                 {
                   li with
                   Block.l_stop = Block.Bound_const (start + (main_iters * step));
                   l_step = step * factor;
                 })
            ()
        in
        for j = 0 to factor - 1 do
          clone main (shift j)
        done;
        let epilogue =
          if tc mod factor = 0 then []
          else begin
            let tail =
              Block.create ~ids ~label:(Block.label b ^ ".tail") ()
            in
            for m = main_iters to tc - 1 do
              clone tail (pin m)
            done;
            [ tail ]
          end
        in
        Func.replace_block f b (main :: epilogue);
        true
      end)

let run ?(factor = 4) (f : Func.t) =
  if factor < 2 then 0
  else
    List.fold_left
      (fun acc b -> if unroll_block ~factor f b then acc + 1 else acc)
      0 (Func.blocks f)
