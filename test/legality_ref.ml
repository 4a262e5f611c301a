(* Reference dependence-order check for the equivalence tests: the
   list-based [check_block_order] that [Lslp_check.Legality] replaced with
   per-position origin arrays, kept verbatim in behaviour.  It walks
   instruction records and [Depgraph.depends] rather than arena positions,
   so it shares no position arithmetic with the code under test. *)

open Lslp_ir
open Lslp_analysis
open Lslp_check

let check_block_order deps ~(provenance : Legality.lane_provenance list)
    (block : Block.t) add =
  let origins : (int, Instr.t list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (p : Legality.lane_provenance) ->
      let known =
        Array.to_list p.Legality.lanes |> List.filter (Depgraph.mem deps)
      in
      if known <> [] then begin
        let cur =
          Option.value ~default:[]
            (Hashtbl.find_opt origins p.Legality.vector.Instr.id)
        in
        Hashtbl.replace origins p.Legality.vector.Instr.id (known @ cur)
      end)
    provenance;
  let origin (i : Instr.t) =
    match Hashtbl.find_opt origins i.Instr.id with
    | Some ls -> ls
    | None -> if Depgraph.mem deps i then [ i ] else []
  in
  let after = Array.of_list (Block.to_list block) in
  let n = Array.length after in
  for x = 0 to n - 1 do
    let ox = origin after.(x) in
    for y = x + 1 to n - 1 do
      let oy = origin after.(y) in
      let violated =
        List.exists
          (fun (a : Instr.t) ->
            List.exists
              (fun (b : Instr.t) ->
                a.Instr.id <> b.Instr.id && Depgraph.depends deps a ~on:b)
              oy)
          ox
      in
      if violated then
        add
          (Diagnostic.error
             ~instrs:[ after.(x); after.(y) ]
             ~rule:"dependence-order"
             (Fmt.str
                "`%s` is scheduled before `%s`, which it depends on in the \
                 original dependence graph"
                after.(x).Instr.name after.(y).Instr.name))
    done
  done

(* The per-block dependence graphs a [Legality.snapshot] holds, built the
   same way; take them before the function is transformed. *)
let deps_of (f : Func.t) =
  List.map (fun b -> (Block.label b, Depgraph.build b)) (Func.blocks f)

(* Every dependence-order diagnostic of [f] against [deps], in the order
   [Legality.validate] reports them. *)
let dependence_order ?(provenance = []) deps (f : Func.t) =
  let diags = ref [] in
  List.iter
    (fun b ->
      match List.assoc_opt (Block.label b) deps with
      | None -> ()
      | Some d ->
        check_block_order d ~provenance b (fun x -> diags := x :: !diags))
    (Func.blocks f);
  List.rev !diags
