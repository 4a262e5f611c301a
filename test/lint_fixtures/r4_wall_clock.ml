(* R4 fixture: wall-clock reads outside a waived site. *)

let now () = Unix.gettimeofday ()

let cpu_seconds () = Sys.time ()
