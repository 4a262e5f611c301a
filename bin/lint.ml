(* lslp-lint — the project's own static-analysis pass.

   Parses the OCaml sources under the given roots with the compiler's
   parser, applies the R1-R5 rules, folds in the committed waiver file,
   and exits nonzero on any unwaived finding (or, with --check-waivers,
   on any stale waiver entry). *)

open Cmdliner

let paths =
  let doc = "Roots to lint (files or directories). Defaults to lib bin." in
  Arg.(value & pos_all string [ "lib"; "bin" ] & info [] ~docv:"PATH" ~doc)

let json =
  let doc = "Emit the report as JSON instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let rules =
  let doc =
    "Restrict to rule $(docv) (id like R3 or slug like raise-primitives). \
     Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "rule"; "r" ] ~docv:"RULE" ~doc)

let list_rules =
  let doc = "List the rule registry and exit." in
  Arg.(value & flag & info [ "rules" ] ~doc)

let waivers_file =
  let doc =
    "Waiver file of per-site justifications. Ignored if absent unless \
     $(b,--check-waivers) is set."
  in
  Arg.(
    value
    & opt string "lint.waivers"
    & info [ "waivers" ] ~docv:"FILE" ~doc)

let check_waivers =
  let doc =
    "Fail on stale waiver entries (and require the waiver file to exist)."
  in
  Arg.(value & flag & info [ "check-waivers" ] ~doc)

let run paths json rule_keys list_rules waivers_file check_waivers =
  if list_rules then (
    List.iter
      (fun r ->
        Fmt.pr "%s %-22s %s@." r.Lslp_lint.Rules.id r.Lslp_lint.Rules.slug
          r.Lslp_lint.Rules.doc)
      Lslp_lint.Rules.all;
    0)
  else
    let unknown =
      List.filter (fun k -> Lslp_lint.Rules.find k = None) rule_keys
    in
    if unknown <> [] then (
      Fmt.epr "lslp-lint: unknown rule(s): %s@."
        (String.concat ", " unknown);
      2)
    else
      let rules = match rule_keys with [] -> None | ks -> Some ks in
      match
        if Sys.file_exists waivers_file then
          Lslp_lint.Waiver.load waivers_file
        else if check_waivers then
          Error (waivers_file ^ ": waiver file not found")
        else Ok []
      with
      | Error msg ->
        Fmt.epr "lslp-lint: %s@." msg;
        2
      | Ok waivers ->
        let report = Lslp_lint.Driver.run ?rules ~waivers paths in
        if json then
          Fmt.pr "%s@."
            (Lslp_util.Json.to_string
               (Lslp_lint.Driver.to_json ~check_waivers report))
        else Fmt.pr "%a" (Lslp_lint.Driver.pp_text ~check_waivers) report;
        if Lslp_lint.Driver.ok ~check_waivers report then 0 else 1

let cmd =
  let doc = "static-analysis pass over the lslp sources" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Applies the R1-R5 rules (global mutable state, ambient Random, \
         raising primitives, wall-clock reads, boxed tables in hot-path \
         modules) to the OCaml sources under the given roots, folding in \
         the committed waiver file. Exits 1 on unwaived findings, 2 on \
         usage errors.";
    ]
  in
  Cmd.v
    (Cmd.info "lslp-lint" ~doc ~man)
    Term.(
      const run $ paths $ json $ rules $ list_rules $ waivers_file
      $ check_waivers)

let () = exit (Cmd.eval' cmd)
