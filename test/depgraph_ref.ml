(* Reference dependence edges for the equivalence tests: the all-pairs
   [direct_preds] that [Lslp_analysis.Depgraph] replaced with per-array
   buckets, kept verbatim in behaviour.  Every memory access is tested
   against every other one, whatever array it touches, so it shares no
   bucketing with the code under test. *)

open Lslp_ir

let direct_preds (arena : Arena.t) =
  let n = Arena.size arena in
  let preds = Array.make n [] in
  for i = 0 to n - 1 do
    List.iter
      (fun v ->
        match Instr.value_id v with
        | Some id ->
          let j = Arena.idx_of_id arena id in
          if j >= 0 && j <> i then preds.(i) <- j :: preds.(i)
        | None -> ())
      (Instr.operands (Arena.instr arena i))
  done;
  let mems = ref [] in
  for i = n - 1 downto 0 do
    if Arena.is_memory arena i then mems := i :: !mems
  done;
  let mems = !mems in
  List.iter
    (fun i ->
      let store_i = Instr.is_store (Arena.instr arena i) in
      List.iter
        (fun j ->
          if
            j < i
            && (store_i || Instr.is_store (Arena.instr arena j))
            && Arena.may_alias arena i j
          then preds.(i) <- j :: preds.(i))
        mems)
    mems;
  preds

(* Transitive closure of [preds]: [reach.(i).(j)] when i depends on j. *)
let closure preds =
  let n = Array.length preds in
  Array.init n (fun i ->
      let seen = Array.make n false in
      let rec visit = function
        | [] -> ()
        | j :: rest ->
          if seen.(j) then visit rest
          else begin
            seen.(j) <- true;
            visit (preds.(j) @ rest)
          end
      in
      visit preds.(i);
      seen)
