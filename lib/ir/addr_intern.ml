(* Address interning without strings.

   The arena's address side table and CSE's load keys both need "same
   array?" and "same symbolic shape?" as int equalities.  The key of a
   shape is its terms list itself, hashed and compared monomorphically
   ([String.equal] on symbols, int compare on coefficients), so a query
   builds nothing.  Consecutive accesses usually share their base and
   shape (unrolled lanes even share the terms list physically), so each
   table keeps the previous query's key and id as a fast path. *)

module Table (K : sig
  include Hashtbl.HashedType

  val none : t
end) =
struct
  module H = Hashtbl.Make (K)

  type t = { ids : int H.t; mutable last : K.t; mutable last_id : int }

  let create () = { ids = H.create 8; last = K.none; last_id = -1 }

  let id t k =
    if t.last_id >= 0 && K.equal t.last k then t.last_id
    else begin
      let id =
        match H.find t.ids k with
        | id -> id
        | exception Not_found ->
          let id = H.length t.ids in
          H.add t.ids k id;
          id
      in
      t.last <- k;
      t.last_id <- id;
      id
    end
end

module Bases = Table (struct
  type t = string

  let equal = String.equal
  let hash (s : string) = Hashtbl.hash s
  let none = ""
end)

module Shapes = Table (struct
  type t = (string * int) list

  let rec equal a b =
    a == b
    ||
    match (a, b) with
    | [], [] -> true
    | (s, c) :: a', (s', c') :: b' ->
      Int.equal c c' && String.equal s s' && equal a' b'
    | _ :: _, [] | [], _ :: _ -> false

  let hash terms =
    let rec go h = function
      | [] -> h land max_int
      | (s, c) :: rest ->
        go ((((h * 31) + Hashtbl.hash (s : string)) * 31) + c) rest
    in
    go 17 terms

  let none = []
end)

type t = { bases : Bases.t; shapes : Shapes.t }

let create () = { bases = Bases.create (); shapes = Shapes.create () }
let base t s = Bases.id t.bases s
let shape t index = Shapes.id t.shapes (Affine.terms index)
let base_count t = Bases.H.length t.bases.Bases.ids
