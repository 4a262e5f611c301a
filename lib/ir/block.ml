(* A basic block: an ordered sequence of instructions, kept as one array
   in program order.  Slots [0, count) hold the instructions, the slots
   past them are room for [append], the builder's one operation.  No slot
   below [count] is ever rewritten: every other change installs a fresh
   array, so an arena or a snapshot holding an old array with its length
   keeps reading that state.  Positions and fast membership are the
   arena's ([Arena.pos], [Arena.mem]). *)

type bound = Bound_const of int | Bound_sym of string

type loop_info = {
  counter : string;      (* loop-local induction symbol, not a function arg *)
  l_start : int;
  l_stop : bound;        (* exclusive: iterate while counter < stop *)
  l_step : int;          (* > 0 *)
}

type kind = Straight | Loop of loop_info

type t = {
  label : string;
  kind : kind;
  ids : Lslp_util.Id_gen.t;     (* the function's id source *)
  mutable insts : Instr.t array; (* program order in [0, count) *)
  mutable count : int;
  mutable room : int;           (* [append] may write slots [count, room) *)
}

(* Every instruction array here starts from this one instruction, made at
   start-up and never in a block: [Array.make] over 256 words from a young
   element (a block's instructions nearly always are) first runs a whole
   minor collection (DESIGN §14). *)
let filler =
  Instr.create ~ids:(Lslp_util.Id_gen.create ~first:(-1) ()) ~name:"filler"
    (Instr.Splat (Instr.Const (Instr.Cint 0L))) Types.Void

let create ~ids ?(label = "entry") ?(kind = Straight) () =
  { label; kind; ids; insts = [||]; count = 0; room = 0 }

let label b = b.label
let kind b = b.kind
let ids b = b.ids

let loop_info b = match b.kind with Straight -> None | Loop li -> Some li

let is_loop b = match b.kind with Straight -> false | Loop _ -> true

let bprint_bound buf = function
  | Bound_const k -> Lslp_util.Decimal.add buf k
  | Bound_sym s -> Buffer.add_string buf s

(* Number of iterations, when the bound is a compile-time constant. *)
let trip_count li =
  match li.l_stop with
  | Bound_sym _ -> None
  | Bound_const stop ->
    if li.l_step <= 0 then None
    else if stop <= li.l_start then Some 0
    else Some ((stop - li.l_start + li.l_step - 1) / li.l_step)

let length b = b.count
let instrs b = b.insts

let install b a n =
  b.insts <- a;
  b.count <- n;
  b.room <- Array.length a

let reinstall b a n =
  b.insts <- a;
  b.count <- n;
  (* a holder of [a] may have read past [n] while the block stood longer *)
  b.room <- n

let to_list b =
  let rec go k acc = if k < 0 then acc else go (k - 1) (b.insts.(k) :: acc) in
  go (b.count - 1) []

let append b i =
  if b.count = b.room then begin
    let a = Array.make (max 8 (2 * b.count)) filler in
    Array.blit b.insts 0 a 0 b.count;
    install b a b.count
  end;
  b.insts.(b.count) <- i;
  b.count <- b.count + 1

(* over the state at the call, whatever [f] does to the block *)
let iter f b =
  let a = b.insts in
  for k = 0 to b.count - 1 do f a.(k) done

let fold f acc b =
  let a = b.insts and r = ref acc in
  for k = 0 to b.count - 1 do r := f !r a.(k) done;
  !r

(* A scan: membership queries on the compile path go to the arena. *)
let mem b (i : Instr.t) =
  let rec go k = k < b.count && (b.insts.(k).Instr.id = i.Instr.id || go (k + 1)) in
  go 0

(* filled from the end: [rev] is in reverse program order *)
let set_rev_order b rev =
  let n = List.length rev in
  let a = Array.make n filler in
  List.iteri (fun k i -> a.(n - 1 - k) <- i) rev;
  install b a n

let set_order b insts = set_rev_order b (List.rev insts)

(* one compacting pass into a fresh array: a view may hold the old one *)
let filteri b keep =
  let a = Array.make b.count filler in
  let n = ref 0 in
  for k = 0 to b.count - 1 do
    let i = b.insts.(k) in
    if keep k i then begin
      a.(!n) <- i;
      incr n
    end
  done;
  install b a !n

let remove_ids b ids =
  let dead =
    match ids with
    | [] | [ _ ] -> fun id -> List.mem id ids
    | _ ->
      let tbl = Lslp_util.Int_table.create (2 * List.length ids) in
      List.iter (fun id -> Lslp_util.Int_table.set tbl id 0) ids;
      fun id -> Lslp_util.Int_table.mem tbl id
  in
  filteri b (fun _ (i : Instr.t) -> not (dead i.Instr.id))
