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
   table.  Every instruction maps to one dense local for the cache's
   lifetime — its arena compact index when the caller has one (the
   [dense] range), its global id interned past that range otherwise — so
   hit/miss behaviour is identical to keying on raw ids.  Then
   [local_a:20 | local_b:20 | level:8 | mode:4] packs into a single word —
   no boxed key record, no polymorphic hashing.  Lookups outside those
   field widths bypass the cache rather than alias. *)

module Int_table = Lslp_util.Int_table

type t = {
  entries : Int_table.t;          (* packed key -> score *)
  locals : Int_table.t;           (* global instr id -> local >= dense *)
  dense : int;                    (* locals [0, dense) are caller indices *)
  mutable next_local : int;
}

let absent = min_int

let create ?(dense = 0) () =
  {
    entries = Int_table.create 64;
    locals = Int_table.create 16;
    dense;
    next_local = dense;
  }

let subject t ~index ~id =
  if index >= 0 && index < t.dense then index
  else
    match Int_table.get t.locals id ~absent:(-1) with
    | -1 ->
      let l = t.next_local in
      t.next_local <- l + 1;
      Int_table.set t.locals id l;
      l
    | l -> l

let max_local = 1 lsl 20

let pack ~a ~b ~level ~mode =
  if level < 0 || level > 0xff || mode < 0 || mode > 0xf then -1
  else if a < 0 || b < 0 || a >= max_local || b >= max_local then -1
  else (((((a lsl 20) lor b) lsl 8) lor level) lsl 4) lor mode

let find t ~a ~b ~level ~mode =
  match pack ~a ~b ~level ~mode with
  | -1 -> absent
  | key -> Int_table.get t.entries key ~absent

let store t ~a ~b ~level ~mode score =
  if score <> absent then
    match pack ~a ~b ~level ~mode with
    | -1 -> ()
    | key -> Int_table.set t.entries key score

let size t = Int_table.length t.entries

let clear t =
  Int_table.clear t.entries;
  Int_table.clear t.locals;
  t.next_local <- t.dense
