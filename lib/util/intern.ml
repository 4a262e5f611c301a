(* String interner: names to dense small ints.

   The label renaming (module [Normalize]) numbers each distinct label once;
   ids are handed out in first-seen order, so a deterministic input order
   yields deterministic ids. *)

type t = (string, int) Hashtbl.t

let create n : t = Hashtbl.create (max 16 n)

let intern t s =
  match Hashtbl.find_opt t s with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t in
    Hashtbl.replace t s id;
    id
