(* A basic block: an ordered sequence of instructions.

   Program order is kept as a reversed spine so [append] — the builder's
   only operation — is O(1); the forward list is memoized and dropped on
   every mutation.  Positions and fast membership are the arena's
   ([Arena.pos], [Arena.mem]): every pass that asks them already holds
   one. *)

module Int_table = Lslp_util.Int_table

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
  ids : Lslp_util.Id_gen.t;                   (* the function's id source *)
  mutable rev_insts : Instr.t list;           (* reverse program order *)
  mutable count : int;
  mutable fwd_cache : Instr.t list option;    (* memoized program order *)
}

let create ~ids ?(label = "entry") ?(kind = Straight) () =
  { label; kind; ids;
    rev_insts = []; count = 0; fwd_cache = None }

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

let to_list b =
  match b.fwd_cache with
  | Some l -> l
  | None ->
    let l = List.rev b.rev_insts in
    b.fwd_cache <- Some l;
    l

let length b = b.count

(* OCaml 5.1's [caml_make_vect] (behind [Array.make], [of_list], [map],
   [init]) allocates an array of more than 256 words in the major heap and,
   when the initial element is a young heap block, first runs a whole minor
   collection.  A block's instructions are nearly always young, so the
   array starts from an immediate that is never read, then is filled in
   program order through the ordinary write barrier. *)
let to_array b =
  let a = Array.make b.count (Obj.magic 0 : Instr.t) in
  List.iteri (fun k i -> a.(k) <- i) (to_list b);
  a

let append b i =
  b.rev_insts <- i :: b.rev_insts;
  b.count <- b.count + 1;
  b.fwd_cache <- None

let append_list b is =
  List.iter (fun i -> b.rev_insts <- i :: b.rev_insts) is;
  b.count <- b.count + List.length is;
  b.fwd_cache <- None

(* A scan: membership queries on the compile path go to the arena. *)
let mem b (i : Instr.t) =
  let rec go = function
    | [] -> false
    | (x : Instr.t) :: rest -> x.Instr.id = i.Instr.id || go rest
  in
  go (to_list b)

let set_order b insts =
  b.rev_insts <- List.rev insts;
  b.count <- List.length insts;
  b.fwd_cache <- Some insts

let set_rev_order b rev =
  b.rev_insts <- rev;
  b.count <- List.length rev;
  b.fwd_cache <- None

let insert_before b ~anchor is =
  let rec go = function
    | [] -> invalid_arg "Block.insert_before: anchor not in block"
    | x :: rest when Instr.equal x anchor -> is @ (x :: rest)
    | x :: rest -> x :: go rest
  in
  set_order b (go (to_list b))

let remove_ids b ids =
  let dead =
    match ids with
    | [] | [ _ ] -> fun id -> List.mem id ids
    | _ ->
      let tbl = Int_table.create (2 * List.length ids) in
      List.iter (fun id -> Int_table.set tbl id 0) ids;
      fun id -> Int_table.mem tbl id
  in
  set_order b
    (List.filter (fun (i : Instr.t) -> not (dead i.Instr.id)) (to_list b))

let remove b i = remove_ids b [ i.Instr.id ]

let iter f b = List.iter f (to_list b)
let fold f acc b = List.fold_left f acc (to_list b)

let find_all p b = List.filter p (to_list b)
