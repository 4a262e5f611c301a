(* Memo table for the look-ahead score.

   Key soundness: a cached entry is only valid while the operand DAG under
   both instructions is immutable, because the score is a pure function of
   (instruction identity, instruction identity, remaining depth, combine
   mode) *given* frozen operands.  The reorderer therefore scopes the
   entries to one reorder invocation — no pass mutates instructions while
   a single operand matrix is being reordered — either with a fresh cache
   or by clearing the graph build's cache at the start of the call, so
   entries can never leak across codegen rewrites, transactional rollbacks
   or later regions.  See DESIGN.md §11.

   Representation: one packed int per entry in an open-addressing int
   table.  Instruction ids are unique within the one function a cache
   sees, so they key the entries directly:
   [id_a:25 | id_b:25 | level:8 | mode:4] is 62 bits, one word — no boxed
   key record, no polymorphic hashing.  Lookups outside those field
   widths bypass the cache rather than alias. *)

module Int_table = Lslp_util.Int_table

type t = Int_table.t (* packed key -> score *)

let absent = min_int

let create () = Int_table.create 64

let max_id = 1 lsl 25

let pack ~a ~b ~level ~mode =
  if level < 0 || level > 0xff || mode < 0 || mode > 0xf then -1
  else if a < 0 || b < 0 || a >= max_id || b >= max_id then -1
  else (((((a lsl 25) lor b) lsl 8) lor level) lsl 4) lor mode

let find t ~a ~b ~level ~mode =
  match pack ~a ~b ~level ~mode with
  | -1 -> absent
  | key -> Int_table.get t key ~absent

let store t ~a ~b ~level ~mode score =
  if score <> absent then
    match pack ~a ~b ~level ~mode with
    | -1 -> ()
    | key -> Int_table.set t key score

let size = Int_table.length
let clear = Int_table.clear
