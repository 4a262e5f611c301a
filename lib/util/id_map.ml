(* Id -> int, dense over the id span when it is narrow enough, hashed
   otherwise.  Unset entries hold -1. *)

type t =
  | Dense of { lo : int; tbl : int array } (* id - lo -> value | -1 *)
  | Sparse of Int_table.t

let create ~count ~lo ~hi =
  if count = 0 then Dense { lo = 0; tbl = [||] }
  else
    let span = hi - lo + 1 in
    if span <= (4 * count) + 1024 then Dense { lo; tbl = Array.make span (-1) }
    else Sparse (Int_table.create (2 * count))

let get t id =
  match t with
  | Dense { lo; tbl } ->
    let o = id - lo in
    if o < 0 || o >= Array.length tbl then -1 else Array.unsafe_get tbl o
  | Sparse tbl -> Int_table.get tbl id ~absent:(-1)

let set t id v =
  match t with
  | Dense { lo; tbl } -> tbl.(id - lo) <- v
  | Sparse tbl -> Int_table.set tbl id v
