(* Textual form of the IR, LLVM-flavoured.  The printer is total: any
   well-formed or ill-formed instruction prints without raising, so it is
   safe to use in error paths and debug logs.

   Every text form comes from one set of [Buffer.t] emitters ([add_*]
   below); [Affine.bprint], [Types.bprint] and [Block.bprint_bound] are the
   emitters for the pieces those modules own.  The [*_to_string] functions
   fill one buffer, and the [pp_*] printers are thin wrappers that hand the
   finished text to [Format].  [Format] stays off the per-instruction path
   on purpose: the compile service prints every compiled function twice
   (content key and result), and formatting each label, use and constant
   through a pretty-printing engine cost more per job than the whole
   vectorizer pipeline. *)

module Decimal = Lslp_util.Decimal

let add = Buffer.add_string

(* comma-separated, as in argument lists and vector literals *)
let add_list buf add_elt = function
  | [] -> ()
  | x :: rest ->
    add_elt buf x;
    List.iter
      (fun y ->
        add buf ", ";
        add_elt buf y)
      rest

let add_const buf = function
  | Instr.Cint n -> add buf (Int64.to_string n)
  | Instr.Cfloat x -> add buf (Printf.sprintf "%h" x)
  | Instr.Cint32 n -> add buf (Printf.sprintf "%ldl" n)
  | Instr.Cfloat32 x -> add buf (Printf.sprintf "%hf" x)

let add_const_readable buf = function
  | Instr.Cfloat x ->
    (* prefer a short decimal form when it round-trips *)
    let s = Printf.sprintf "%.12g" x in
    add buf (if float_of_string s = x then s else Printf.sprintf "%h" x)
  | Instr.Cfloat32 x ->
    let s = Printf.sprintf "%.7g" x in
    add buf (if float_of_string s = x then s ^ "f" else Printf.sprintf "%hf" x)
  | (Instr.Cint _ | Instr.Cint32 _) as c -> add_const buf c

(* Labels embed the instruction id so they are always unique, even when two
   instructions share a printing hint. *)
let add_label buf (i : Instr.t) =
  if String.equal i.name "" then add buf "%v"
  else (
    Buffer.add_char buf '%';
    add buf i.name;
    Buffer.add_char buf '.');
  Decimal.add buf i.id

let add_value buf = function
  | Instr.Const c -> add_const_readable buf c
  | Instr.Arg a -> add buf a.arg_name
  | Instr.Ins i -> add_label buf i

let add_address buf (a : Instr.address) =
  if a.access_lanes > 1 then (
    Buffer.add_char buf '<';
    Decimal.add buf a.access_lanes;
    add buf " x ";
    add buf (Types.scalar_name a.elt);
    add buf "> ");
  add buf a.base;
  Buffer.add_char buf '[';
  Affine.bprint buf a.index;
  Buffer.add_char buf ']'

let add_instr buf (i : Instr.t) =
  let lhs op =
    add_label buf i;
    add buf " : ";
    Types.bprint buf i.ty;
    add buf " = ";
    add buf op
  in
  let value v = add_value buf v in
  let next v =
    add buf ", ";
    value v
  in
  match i.kind with
  | Instr.Binop (op, x, y) ->
    lhs (Opcode.binop_name op);
    Buffer.add_char buf ' ';
    value x;
    next y
  | Instr.Unop (op, x) ->
    lhs (Opcode.unop_name op);
    Buffer.add_char buf ' ';
    value x
  | Instr.Load a ->
    lhs "load ";
    add_address buf a
  | Instr.Store (a, v) ->
    add buf "store ";
    add_address buf a;
    next v
  | Instr.Cmp (op, x, y) ->
    lhs "cmp.";
    add buf (Opcode.cmp_name op);
    Buffer.add_char buf ' ';
    value x;
    next y
  | Instr.Select (m, x, y) ->
    lhs "select ";
    value m;
    next x;
    next y
  | Instr.Masked_load (a, m, p) ->
    lhs "masked.load ";
    add_address buf a;
    next m;
    next p
  | Instr.Masked_store (a, v, m) ->
    add buf "masked.store ";
    add_address buf a;
    next v;
    next m
  | Instr.Splat v ->
    lhs "splat ";
    value v
  | Instr.Buildvec vs ->
    lhs "buildvec [";
    add_list buf add_value vs;
    Buffer.add_char buf ']'
  | Instr.Extract (v, lane) ->
    lhs "extract ";
    value v;
    add buf ", ";
    Decimal.add buf lane
  | Instr.Reduce (op, v) ->
    lhs "reduce.";
    add buf (Opcode.binop_name op);
    Buffer.add_char buf ' ';
    value v
  | Instr.Shuffle (v, idx) ->
    lhs "shuffle ";
    value v;
    add buf ", [";
    add_list buf Decimal.add idx;
    Buffer.add_char buf ']'

let add_arg buf (a : Instr.arg) =
  match a.arg_ty with
  | Instr.Int_arg ->
    add buf "i64 ";
    add buf a.arg_name
  | Instr.Float_arg ->
    add buf "f64 ";
    add buf a.arg_name
  | Instr.Array_arg elt ->
    add buf (Types.scalar_name elt);
    Buffer.add_char buf ' ';
    add buf a.arg_name;
    add buf "[]"

let add_block_header buf b =
  add buf (Block.label b);
  Buffer.add_char buf ':';
  match Block.kind b with
  | Block.Straight -> ()
  | Block.Loop li ->
    let counter = li.Block.counter in
    add buf " for (";
    add buf counter;
    add buf " = ";
    Decimal.add buf li.Block.l_start;
    add buf "; ";
    add buf counter;
    add buf " < ";
    Block.bprint_bound buf li.Block.l_stop;
    add buf "; ";
    add buf counter;
    add buf " += ";
    Decimal.add buf li.Block.l_step;
    Buffer.add_char buf ')'

(* [f] line by line: [eol ()] runs between two lines, never after the last,
   so the caller decides what a line break is. *)
let add_func buf ~eol (f : Func.t) =
  add buf "kernel ";
  add buf f.fname;
  Buffer.add_char buf '(';
  add_list buf add_arg f.args;
  add buf ") {";
  let line i =
    eol ();
    add buf "  ";
    add_instr buf i
  in
  (match Func.blocks f with
   | [ b ] when not (Block.is_loop b) ->
     (* the straight-line common case keeps the historical flat form *)
     Block.iter line b
   | bs ->
     List.iter
       (fun b ->
         eol ();
         add_block_header buf b;
         Block.iter line b)
       bs);
  eol ();
  Buffer.add_char buf '}'

let to_string emit x =
  let buf = Buffer.create 64 in
  emit buf x;
  Buffer.contents buf

let instr_to_string i = to_string add_instr i
let value_to_string v = to_string add_value v

let func_to_string f =
  let buf = Buffer.create 1024 in
  add_func buf ~eol:(fun () -> Buffer.add_char buf '\n') f;
  Buffer.contents buf

let wrap emit ppf x = Fmt.string ppf (to_string emit x)
let pp_const ppf c = wrap add_const ppf c
let pp_const_readable ppf c = wrap add_const_readable ppf c
let pp_value ppf v = wrap add_value ppf v
let pp_instr ppf i = wrap add_instr ppf i

(* One [Format] string and cut per line inside a vertical box, so the
   function prints the same bytes when a caller embeds it in an indented
   box. *)
let pp_func ppf f =
  let buf = Buffer.create 128 in
  let flush () =
    Fmt.string ppf (Buffer.contents buf);
    Buffer.clear buf
  in
  Fmt.pf ppf "@[<v>";
  add_func buf f ~eol:(fun () ->
      flush ();
      Fmt.cut ppf ());
  flush ();
  Fmt.pf ppf "@]"
