(* The append-only run logs of the report-only harnesses (speed, serve):
   reading the runs already recorded and stamping a new one with the
   commit it measured. *)

module Json = Lslp_util.Json

let first_line cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let line = try input_line ic with End_of_file -> "" in
  ignore (Unix.close_process_in ic);
  line

(* Best-effort provenance; the harnesses must work outside a checkout too.
   A run measured with uncommitted edits to tracked files is stamped
   [<hash>-dirty], so it is never credited to the commit it started from. *)
let git_commit () =
  try
    match first_line "git rev-parse --short HEAD" with
    | "" -> None
    | hash ->
      if first_line "git status --porcelain --untracked-files=no" = "" then
        Some hash
      else Some (hash ^ "-dirty")
  with _ -> None

let load_runs path =
  if not (Sys.file_exists path) then []
  else
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Json.of_string s with
    | Ok (Json.Obj fields) -> (
      match List.assoc_opt "runs" fields with
      | Some (Json.Arr runs) -> runs
      | _ -> [])
    | Ok _ | Error _ -> []
