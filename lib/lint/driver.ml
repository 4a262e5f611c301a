(* File collection, parsing, and report assembly. *)

module Json = Lslp_util.Json

type report = {
  files : string list;
  parse_errors : (string * string) list;
  waived : (Finding.t * Waiver.entry) list;
  unwaived : Finding.t list;
  stale : Waiver.entry list;
}

(* ---- file collection ---------------------------------------------- *)

let skip_dir name =
  name = "_build" || (String.length name > 0 && name.[0] = '.')

(* Normalize "./lib" and "lib/" to "lib" so waiver paths are stable. *)
let normalize path =
  let path =
    if String.length path > 2 && String.sub path 0 2 = "./" then
      String.sub path 2 (String.length path - 2)
    else path
  in
  let n = String.length path in
  if n > 1 && path.[n - 1] = '/' then String.sub path 0 (n - 1) else path

let ml_files roots =
  let acc = ref [] in
  let rec walk path =
    if Sys.is_directory path then
      Array.iter
        (fun name ->
          if not (skip_dir name) then walk (Filename.concat path name))
        (Sys.readdir path)
    else if Filename.check_suffix path ".ml" then acc := path :: !acc
  in
  List.iter
    (fun root ->
      let root = normalize root in
      if Sys.file_exists root then walk root)
    roots;
  List.sort_uniq String.compare !acc

(* ---- parsing ------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let lint_source ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | structure -> Ok (Rules.check ~file structure)
  | exception exn -> (
    match Location.error_of_exn exn with
    | Some (`Ok err) ->
      let msg = Format.asprintf "%a" Location.print_report err in
      (* one line, no source excerpt artifacts *)
      Error
        (String.concat " "
           (List.filter
              (fun s -> s <> "")
              (List.map String.trim (String.split_on_char '\n' msg))))
    | _ -> Error (file ^ ": " ^ Printexc.to_string exn))

(* ---- the run ------------------------------------------------------ *)

let run ?rules ?(waivers = []) roots =
  let keep f =
    match rules with
    | None -> true
    | Some keys ->
      List.exists
        (fun k -> k = f.Finding.rule || k = f.Finding.slug)
        keys
  in
  let files = ml_files roots in
  let findings, parse_errors =
    List.fold_left
      (fun (fs, errs) file ->
        match lint_source ~file (read_file file) with
        | Ok found -> (fs @ List.filter keep found, errs)
        | Error msg -> (fs, errs @ [ (file, msg) ]))
      ([], []) files
  in
  let { Waiver.waived; unwaived; stale } = Waiver.apply waivers findings in
  (* a stale entry for a rule outside the requested subset is not the
     waiver file's fault — don't report it *)
  let stale =
    match rules with
    | None -> stale
    | Some keys ->
      List.filter
        (fun e -> List.exists (fun k -> k = e.Waiver.w_rule) keys)
        stale
  in
  { files; parse_errors; waived; unwaived; stale }

let ok ?(check_waivers = false) r =
  r.parse_errors = [] && r.unwaived = []
  && ((not check_waivers) || r.stale = [])

(* ---- rendering ---------------------------------------------------- *)

let pp_text ?(check_waivers = false) ppf r =
  List.iter
    (fun (file, msg) -> Fmt.pf ppf "%s: parse error: %s@." file msg)
    r.parse_errors;
  List.iter (fun f -> Fmt.pf ppf "%a@." Finding.pp f) r.unwaived;
  if check_waivers then
    List.iter
      (fun e ->
        Fmt.pf ppf "stale waiver (matched no finding): %a@." Waiver.pp_entry
          e)
      r.stale;
  let stale_n = if check_waivers then List.length r.stale else 0 in
  Fmt.pf ppf "lint: %d file(s), %d finding(s): %d unwaived, %d waived%s@."
    (List.length r.files)
    (List.length r.unwaived + List.length r.waived)
    (List.length r.unwaived)
    (List.length r.waived)
    (if stale_n > 0 then Fmt.str ", %d stale waiver(s)" stale_n else "")

let to_json ?(check_waivers = false) r =
  Json.Obj
    [
      ("files", Json.Int (List.length r.files));
      ( "parse_errors",
        Json.Arr
          (List.map
             (fun (file, msg) ->
               Json.Obj
                 [ ("file", Json.Str file); ("message", Json.Str msg) ])
             r.parse_errors) );
      ( "findings",
        Json.Arr
          (List.map (Finding.json ~waived:false) r.unwaived
          @ List.map (fun (f, _) -> Finding.json ~waived:true f) r.waived)
      );
      ( "stale_waivers",
        if check_waivers then
          Json.Arr (List.map Waiver.entry_json r.stale)
        else Json.Arr [] );
      ("ok", Json.Bool (ok ~check_waivers r));
    ]
