(* Address analysis (SCEV-lite).

   The SLP algorithm needs two memory facts, both answered here from the
   affine normal form of subscripts:

   - adjacency: do two accesses touch consecutive elements of the same array
     (in lane order)?  This decides whether a load/store bundle becomes a
     wide access or a gather.
   - aliasing: can two accesses touch the same element?  This feeds the
     dependence graph and hence scheduling legality.

   Distinct array arguments are assumed not to alias (they model distinct
   global arrays, as in the paper's kernels). *)

open Lslp_ir

let same_array (a : Instr.address) (b : Instr.address) =
  String.equal a.base b.base

(* Element distance [b - a] when it is a compile-time constant. *)
let element_distance (a : Instr.address) (b : Instr.address) =
  if same_array a b then Affine.diff_const b.index a.index else None

let consecutive (a : Instr.address) (b : Instr.address) =
  match element_distance a b with
  | Some d -> d = a.access_lanes
  | None -> false

(* Accesses occupy [index, index + lanes) elements. *)
let ranges_overlap a_lo a_len b_lo b_len =
  a_lo < b_lo + b_len && b_lo < a_lo + a_len

let may_alias (a : Instr.address) (b : Instr.address) =
  if not (same_array a b) then false
  else
    match Affine.diff_const b.index a.index with
    | None -> true (* symbolically different indices: assume the worst *)
    | Some d -> ranges_overlap 0 a.access_lanes d b.access_lanes

(* Is a list of scalar addresses a run of consecutive elements, in order? *)
let rec consecutive_run = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> consecutive a b && consecutive_run rest
