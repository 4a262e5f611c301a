(* Vector code generation (paper §2.2 steps 6-7).

   Replaces each vectorizable bundle with one wide instruction, emits
   gathers (buildvec/splat) for non-vectorizable operand columns and
   extracts for vectorized values that still have scalar users, and removes
   the replaced scalars; what the rewrite leaves dead is swept from the
   emitted list itself ([sweep_dead]), not by a DCE pass over the block.

   Scheduling: rather than reasoning about a single insertion point, the
   whole block is rebuilt.  Each graph node (group or whole multi-node) is a
   *unit*; every remaining scalar instruction is a singleton unit; unit
   dependences are induced from the direct edges of the instruction-level
   dependence graph (data + memory).  [Depgraph.schedule] orders the units
   over a ready set of key ranks (the keys are distinct positions, so
   ranking them is a counting pass); since the emitted set stays closed
   under dependences, direct edges give the same stable order as the
   transitive closure would.  That order is a valid schedule of the
   transformed block — and if the contraction is cyclic the bundles were
   not schedulable together, so we abort before mutating anything.

   Emission reads gather lanes and operand columns as arrays
   ([Graph.child_slots]) and walks node members in place; per gather, the
   one list built is the [Buildvec] operand list the IR holds. *)

open Lslp_ir
open Lslp_analysis

type outcome = Vectorized | Not_schedulable | Failed of string

(* A malformed graph (bad node shapes, dangling references, ill-typed
   columns) is a *caller* bug from codegen's point of view, but one the
   pipeline must survive: emission may already have rewritten scalar
   operands when the problem surfaces, so the error is typed, caught at the
   [run] boundary, and surfaced as [Failed] for the transactional driver to
   roll back.  Genuine internal invariants (states excluded by
   [Bundle.classify] or by unit construction) stay as [invalid_arg]. *)
exception Error of string

let error fmt = Fmt.kstr (fun msg -> raise (Error msg)) fmt

(* A horizontal reduction being vectorized alongside the graph: the scalar
   chain [red_chain] (root included) is replaced by element-wise combines of
   the W-wide leaf chunks, one [Reduce], and a scalar fold of the leftover
   leaves; every scalar user of [red_root] is rewired to the final value. *)
type reduction = {
  red_op : Opcode.binop;
  red_root : Instr.t;
  red_chain : Instr.t list;
  red_chunks : Graph.node list;
  red_remainder : Instr.value list;
}

let iter_members f (n : Graph.node) =
  match n.Graph.shape with
  | Graph.Group insts -> Array.iter f insts
  | Graph.Multi m -> List.iter (Array.iter f) m.Graph.m_groups
  | Graph.Gather _ -> ()

let element_scalar (i : Instr.t) =
  match Types.scalar_of i.Instr.ty with
  | Some s -> s
  | None -> (
    (* stores are void-typed; take the element from the address *)
    match Instr.address i with
    | Some a -> a.Instr.elt
    | None ->
      error "no element type for bundle member %%%d (%s)" i.Instr.id
        (Instr.opclass_name (Instr.opclass i)))

let vector_nodes graph =
  List.filter
    (fun (n : Graph.node) ->
      match n.Graph.shape with
      | Graph.Group _ | Graph.Multi _ -> true
      | Graph.Gather _ -> false)
    (Graph.nodes graph)

(* Unit [u]'s graph slot, for the vector nodes in unit order.  An int
   array, so it never starts from a young node (DESIGN §14). *)
let rec fill_slots a u = function
  | [] -> ()
  | (nd : Graph.node) :: rest ->
    a.(u) <- nd.Graph.slot;
    fill_slots a (u + 1) rest

let units ?reduction graph arena =
  let n = Arena.size arena in
  (* compact index -> unit; every block instruction gets exactly one *)
  let unit_of = Array.make n (-1) in
  let num_units = ref 0 in
  let claim (i : Instr.t) = unit_of.(Arena.idx arena i) <- !num_units in
  List.iter
    (fun node ->
      iter_members claim node;
      incr num_units)
    (vector_nodes graph);
  (* the reduction chain, if any, forms one additional unit *)
  Option.iter
    (fun r ->
      List.iter claim r.red_chain;
      incr num_units)
    reduction;
  (* surviving scalars become singleton units, in program order *)
  for k = 0 to n - 1 do
    if unit_of.(k) < 0 then begin
      unit_of.(k) <- !num_units;
      incr num_units
    end
  done;
  let key = Array.make !num_units max_int in
  for k = n - 1 downto 0 do
    key.(unit_of.(k)) <- k
  done;
  (unit_of, key)

(* ---- dead sweep ---------------------------------------------------- *)

(* [rev] (the emitted block in reverse program order, codegen's
   accumulator) without what [Dce.run_block] would remove from it, and
   without building an arena.  A pre-codegen instruction's slot is its
   index in [arena]; a fresh one's is [Arena.size arena] plus its id's
   offset from [first_new] ([fresh] ids were drawn since).  Users come
   before their operands in [rev] and uses are acyclic, so one walk
   decides: an instruction is live when it has a side effect or a live
   user marked its slot, and only a live one marks its operands. *)
let slot arena ~first_new ~fresh (i : Instr.t) =
  let id = i.Instr.id in
  if id >= first_new then
    if id - first_new < fresh then Arena.size arena + id - first_new else -1
  else Arena.idx arena i

let sweep_dead arena ~first_new ~fresh rev =
  let live = Bytes.make (Arena.size arena + fresh) '\000' in
  let is_live (i : Instr.t) =
    Instr.has_side_effect i
    ||
    let k = slot arena ~first_new ~fresh i in
    k >= 0 && Bytes.get live k = '\001'
  in
  let mark (v : Instr.value) =
    match v with
    | Instr.Ins d ->
      let k = slot arena ~first_new ~fresh d in
      if k >= 0 then Bytes.set live k '\001'
    | Instr.Const _ | Instr.Arg _ -> ()
  in
  let rec walk dead = function
    | [] -> dead
    | i :: rest ->
      if is_live i then begin
        Instr.iter_operands mark i;
        walk dead rest
      end
      else walk (dead + 1) rest
  in
  match walk 0 rev with 0 -> rev | _ -> List.filter is_live rev

let run ?reduction ?(record = fun ~lanes:_ ~vector:_ -> ()) ?probe ?deps
    (graph : Graph.t) (block : Block.t) : outcome =
  (* [deps] shares the dependence graph (and arena snapshot) the caller
     already built for this un-mutated block; built fresh otherwise *)
  let deps =
    match deps with Some d -> d | None -> Depgraph.build block
  in
  let arena = Depgraph.arena deps in
  let n = Arena.size arena in
  let unit_of, key = units ?reduction graph arena in
  let vector = vector_nodes graph in
  let node_slot = Array.make (List.length vector) 0 in
  fill_slots node_slot 0 vector;
  let num_node_units = Array.length node_slot in
  let first_scalar_unit =
    num_node_units + match reduction with Some _ -> 1 | None -> 0
  in
  match Depgraph.schedule deps ~unit_of ~key with
  | None -> Not_schedulable
  | Some order -> (
    try
    (* ---- emission -------------------------------------------------- *)
    let out = ref [] in
    (* new instructions number on from the block's function; the dead
       sweep indexes them by their offset from [first_new] *)
    let ids = Block.ids block in
    let first_new = Lslp_util.Id_gen.peek ids in
    (* [push] is for freshly materialized instructions (vector ops, gathers,
       extracts) and records an [Emit] trace event; surviving scalars go
       through [repush] below, unrecorded. *)
    let repush i = out := i :: !out in
    let push (i : Instr.t) =
      (match probe with
       | Some p when Lslp_telemetry.Probe.tracing p ->
         let lanes =
           match i.Instr.ty with
           | Types.Vec (_, n) -> n
           | Types.Scalar _ | Types.Void -> (
             match Instr.address i with
             | Some a -> a.Instr.access_lanes
             | None -> 1)
         in
         Lslp_telemetry.Probe.record p
           (Lslp_trace.Trace.Emit { instr = Printer.instr_to_string i; lanes })
       | Some _ | None -> ());
      repush i
    in
    (* surviving scalars are re-pushed, not materialized; everything else in
       [out] is fresh — the probe's instrs_emitted, charged only on commit *)
    let scalar_repushes = ref 0 in
    (* node slot -> emitted vector value *)
    let vec_vals : Instr.value option array =
      Array.make (max (Graph.node_count graph) 1) None
    in
    (* compact index -> materialized extract / scalar replacement; keys are
       always pre-codegen block instructions, so the arena covers them *)
    let extracts : Instr.value option array = Array.make (max n 1) None in
    let replacements : Instr.value option array = Array.make (max n 1) None in
    let slot_of (i : Instr.t) = Arena.idx arena i in
    let rec subst (v : Instr.value) : Instr.value =
      match v with
      | Instr.Ins i
        when slot_of i >= 0 && Option.is_some replacements.(slot_of i) ->
        Option.get replacements.(slot_of i)
      | Instr.Ins i when Graph.claimed graph i -> (
        match extracts.(slot_of i) with
        | Some e -> e
        | None -> (
          match Graph.lane_of graph i with
          | Some (node, lane) ->
            let vec =
              match vec_vals.(node.Graph.slot) with
              | Some v -> v
              | None ->
                error
                  "extract of lane %d (%%%d) before its defining node #%d \
                   was emitted"
                  lane i.Instr.id node.Graph.nid
            in
            let e =
              Instr.create ~ids ~name:"ext" (Instr.Extract (vec, lane))
                (Types.Scalar (element_scalar i))
            in
            push e;
            let ev = Instr.Ins e in
            extracts.(slot_of i) <- Some ev;
            ev
          | None ->
            error "claimed value %%%d escapes its multi-node (no lane)"
              i.Instr.id))
      | Instr.Ins _ | Instr.Const _ | Instr.Arg _ -> v
    and emit_node (n : Graph.node) : Instr.value =
      match vec_vals.(n.Graph.slot) with
      | Some v -> v
      | None ->
        let v =
          match n.Graph.shape with
          | Graph.Gather vs -> (
            match Graph.shuffle_pattern graph vs with
            | Some (src, idx) ->
              (* pure permutation of one vector value: a single shuffle *)
              let src_vec =
                match vec_vals.(src.Graph.slot) with
                | Some v -> v
                | None ->
                  error "shuffle before its source node #%d was emitted"
                    src.Graph.nid
              in
              let elt =
                match Instr.value_ty src_vec with
                | Some (Types.Vec (s, _)) -> s
                | Some _ | None ->
                  error "shuffle source node #%d is not vector-typed"
                    src.Graph.nid
              in
              let ty = Types.vec elt (Array.length vs) in
              let i =
                Instr.create ~ids ~name:"shuf" (Instr.Shuffle (src_vec, idx)) ty
              in
              push i;
              Instr.Ins i
            | None ->
              let values = Array.map subst vs in
              let elt =
                match Instr.value_ty values.(0) with
                | Some (Types.Scalar s) -> s
                | Some _ | None ->
                  error "gather lane 0 of a %d-lane column is not scalar"
                    (Array.length vs)
              in
              let ty = Types.vec elt (Array.length values) in
              let i =
                match Lslp_costmodel.Model.classify_gather values with
                | Lslp_costmodel.Model.Gather_splat ->
                  Instr.create ~ids ~name:"splat" (Instr.Splat values.(0)) ty
                | Lslp_costmodel.Model.Gather_free
                | Lslp_costmodel.Model.Gather_insert ->
                  Instr.create ~ids ~name:"gath"
                    (Instr.Buildvec (Array.to_list values)) ty
              in
              push i;
              Instr.Ins i)
          | Graph.Group insts -> (
            let lanes = Array.length insts in
            let i0 = insts.(0) in
            (* the group's operand nodes, emitted in order *)
            let operands what want =
              let cs = Array.map emit_slot (Graph.child_slots graph n) in
              if Array.length cs <> want then
                error "%d-lane %s group has %d operand node(s), want %d" lanes
                  what (Array.length cs) want;
              cs
            in
            let wide name kind ty =
              let i = Instr.create ~ids ~name kind ty in
              push i;
              record ~lanes:insts ~vector:i;
              Instr.Ins i
            in
            let vec_ty () = Types.vec (element_scalar i0) lanes in
            let addr a = { a with Instr.access_lanes = lanes } in
            match i0.Instr.kind with
            | Instr.Load a ->
              let a = addr a in
              wide "vload" (Instr.Load a) (Types.vec a.Instr.elt lanes)
            | Instr.Store (a, _) ->
              let c = operands "store" 1 in
              wide "vstore" (Instr.Store (addr a, c.(0))) Types.Void
            | Instr.Binop (op, _, _) ->
              let c = operands "binop" 2 in
              wide "v" (Instr.Binop (op, c.(0), c.(1))) (vec_ty ())
            | Instr.Unop (op, _) ->
              let c = operands "unop" 1 in
              wide "v" (Instr.Unop (op, c.(0))) (vec_ty ())
            | Instr.Cmp (op, _, _) ->
              (* i0 is i1-typed, so element_scalar yields I1: the wide
                 compare produces the vector mask directly *)
              let c = operands "cmp" 2 in
              wide "vcmp" (Instr.Cmp (op, c.(0), c.(1))) (vec_ty ())
            | Instr.Select _ ->
              let c = operands "select" 3 in
              wide "vsel" (Instr.Select (c.(0), c.(1), c.(2))) (vec_ty ())
            | Instr.Masked_load (a, _, _) ->
              let c = operands "masked-load" 2 in
              let a = addr a in
              wide "vmload"
                (Instr.Masked_load (a, c.(0), c.(1)))
                (Types.vec a.Instr.elt lanes)
            | Instr.Masked_store (a, _, _) ->
              let c = operands "masked-store" 2 in
              wide "vmstore"
                (Instr.Masked_store (addr a, c.(0), c.(1)))
                Types.Void
            | Instr.Splat _ | Instr.Buildvec _ | Instr.Extract _
            | Instr.Reduce _ | Instr.Shuffle _ ->
              (* unreachable: Bundle.classify rejects vector-only opcodes
                 as Unsupported_shape before a group node can be built *)
              invalid_arg "Codegen: vector-only opcode in a scalar group")
          | Graph.Multi m ->
            let lanes = Graph.lanes_of_node n in
            let elt =
              match m.Graph.m_groups with
              | g :: _ -> element_scalar g.(0)
              | [] -> error "multi-node #%d has no internal groups" n.Graph.nid
            in
            let ty = Types.vec elt lanes in
            let children = Array.map emit_slot (Graph.child_slots graph n) in
            (match Array.length children with
             | 0 -> error "multi-node #%d has no operand nodes" n.Graph.nid
             | count ->
               let v = ref children.(0) in
               for c = 1 to count - 1 do
                 let i =
                   Instr.create ~ids ~name:"v"
                     (Instr.Binop (m.Graph.m_op, !v, children.(c)))
                     ty
                 in
                 push i;
                 v := Instr.Ins i
               done;
               let v = !v in
               (* the whole reassociated chain stands for the final combine:
                  every internal bundle's lanes map to it for provenance *)
               (match v with
                | Instr.Ins vi ->
                  List.iter
                    (fun g -> record ~lanes:g ~vector:vi)
                    m.Graph.m_groups
                | Instr.Const _ | Instr.Arg _ -> ());
               v)
        in
        vec_vals.(n.Graph.slot) <- Some v;
        v
    and emit_slot slot = emit_node (Graph.node_of_slot graph slot) in
    let emit_reduction (r : reduction) =
      let chunk_vecs = List.map emit_node r.red_chunks in
      let elt = element_scalar r.red_root in
      let lanes =
        match r.red_chunks with
        | c :: _ -> Graph.lanes_of_node c
        | [] ->
          error "reduction rooted at %%%d has no leaf chunks"
            r.red_root.Instr.id
      in
      let vty = Types.vec elt lanes in
      let combined =
        match chunk_vecs with
        | [] ->
          error "reduction rooted at %%%d emitted no chunk vectors"
            r.red_root.Instr.id
        | first :: rest ->
          List.fold_left
            (fun acc c ->
              let i =
                Instr.create ~ids ~name:"vacc"
                  (Instr.Binop (r.red_op, acc, c))
                  vty
              in
              push i;
              Instr.Ins i)
            first rest
      in
      let red =
        Instr.create ~ids ~name:"hred" (Instr.Reduce (r.red_op, combined))
          (Types.Scalar elt)
      in
      push red;
      let final =
        List.fold_left
          (fun acc v ->
            let i =
              Instr.create ~ids ~name:"tail"
                (Instr.Binop (r.red_op, acc, subst v))
                (Types.Scalar elt)
            in
            push i;
            Instr.Ins i)
          (Instr.Ins red) r.red_remainder
      in
      replacements.(slot_of r.red_root) <- Some final
    in
    Array.iter
      (fun u ->
        if u < num_node_units then
          ignore (emit_node (Graph.node_of_slot graph node_slot.(u)))
        else if u < first_scalar_unit then
          emit_reduction (Option.get reduction)
        else begin
          (* a scalar unit's key is its one member's position *)
          let i = Arena.instr arena key.(u) in
          Instr.map_operands subst i;
          incr scalar_repushes;
          repush i
        end)
      order;
    Option.iter
      (fun p ->
        let c = Lslp_telemetry.Probe.counters p in
        c.Lslp_telemetry.Probe.instrs_emitted <-
          c.Lslp_telemetry.Probe.instrs_emitted
          + (List.length !out - !scalar_repushes))
      probe;
    Block.set_rev_order block
      (sweep_dead arena ~first_new
         ~fresh:(Lslp_util.Id_gen.peek ids - first_new) !out);
    Vectorized
    with Error msg ->
      (* Emission may have half-rewritten the block (operand substitutions
         on surviving scalars happen in place); the transactional pipeline
         rolls the region back when it sees [Failed]. *)
      Failed msg)
