(* Id -> int as an array over the id span.  Unset entries hold -1. *)

type t = { lo : int; tbl : int array (* id - lo -> value | -1 *) }

let create ~lo ~hi =
  if hi < lo then { lo = 0; tbl = [||] }
  else { lo; tbl = Array.make (hi - lo + 1) (-1) }

let get t id =
  let o = id - t.lo in
  if o < 0 || o >= Array.length t.tbl then -1 else Array.unsafe_get t.tbl o

let set t id v = t.tbl.(id - t.lo) <- v
