(* The lslp-lint rule registry against the seeded fixture files.

   Each fixture under lint_fixtures/ violates exactly one rule; the
   tests pin the exact (rule, line, ident) triples so a rule that starts
   over- or under-matching fails loudly.  The waiver machinery is
   exercised both ways: a matching entry waives, a non-matching entry is
   reported stale. *)

module Driver = Lslp_lint.Driver
module Finding = Lslp_lint.Finding
module Rules = Lslp_lint.Rules
module Waiver = Lslp_lint.Waiver

let tc = Helpers.tc
let check_int = Helpers.check_int

let triple f = (f.Finding.rule, f.Finding.line, f.Finding.ident)

let check_findings name expected path =
  let r = Driver.run [ "lint_fixtures/" ^ path ] in
  check_int (name ^ ": no parse errors") 0
    (List.length r.Driver.parse_errors);
  Alcotest.(check (list (triple string int string)))
    name expected
    (List.map triple r.Driver.unwaived)

let r1 () =
  check_findings "r1" [ ("R1", 3, "hits"); ("R1", 4, "table") ]
    "r1_global_ref.ml";
  (* column is the start of the creating expression *)
  let r = Driver.run [ "lint_fixtures/r1_global_ref.ml" ] in
  Alcotest.(check (list int))
    "r1 columns" [ 11; 12 ]
    (List.map (fun f -> f.Finding.col) r.Driver.unwaived)

let r2 () =
  check_findings "r2"
    [ ("R2", 3, "Random.int"); ("R2", 5, "Random.self_init") ]
    "r2_ambient_random.ml"

let r3 () =
  check_findings "r3"
    [ ("R3", 5, "failwith"); ("R3", 7, "invalid_arg"); ("R3", 9, "Not_found") ]
    "r3_raises.ml"

let r4 () =
  check_findings "r4"
    [ ("R4", 3, "Unix.gettimeofday"); ("R4", 5, "Sys.time") ]
    "r4_wall_clock.ml"

let waived () =
  (* without the waiver file the fixture is an ordinary finding *)
  check_findings "unwaived" [ ("R1", 4, "memo") ] "waived_ok.ml";
  let waivers =
    match Waiver.load "lint_fixtures/fixtures.waivers" with
    | Ok ws -> ws
    | Error e -> Alcotest.fail e
  in
  let r = Driver.run ~waivers [ "lint_fixtures/waived_ok.ml" ] in
  check_int "waived" 1 (List.length r.Driver.waived);
  check_int "unwaived" 0 (List.length r.Driver.unwaived);
  check_int "stale" 0 (List.length r.Driver.stale);
  Alcotest.(check bool) "ok" true (Driver.ok ~check_waivers:true r)

let whole_dir () =
  let waivers =
    match Waiver.load "lint_fixtures/fixtures.waivers" with
    | Ok ws -> ws
    | Error e -> Alcotest.fail e
  in
  let r = Driver.run ~waivers [ "lint_fixtures" ] in
  check_int "ml files found" 5 (List.length r.Driver.files);
  check_int "waived" 1 (List.length r.Driver.waived);
  check_int "unwaived" 9 (List.length r.Driver.unwaived);
  check_int "stale" 0 (List.length r.Driver.stale);
  Alcotest.(check bool) "seeded violations fail the run" false
    (Driver.ok ~check_waivers:true r)

let rule_filter () =
  let r = Driver.run ~rules:[ "R3" ] [ "lint_fixtures" ] in
  Alcotest.(check bool) "only R3 findings" true
    (List.for_all (fun f -> f.Finding.rule = "R3") r.Driver.unwaived);
  check_int "three R3 sites" 3 (List.length r.Driver.unwaived);
  (* slugs resolve like ids *)
  let r' = Driver.run ~rules:[ "raise-primitives" ] [ "lint_fixtures" ] in
  check_int "slug selects the same rule" 3 (List.length r'.Driver.unwaived)

let stale () =
  let entries =
    match
      Waiver.parse ~file:"w"
        "R2 lint_fixtures/waived_ok.ml Random.int -- never fires"
    with
    | Ok es -> es
    | Error e -> Alcotest.fail e
  in
  let r = Driver.run ~waivers:entries [ "lint_fixtures/waived_ok.ml" ] in
  check_int "entry matched nothing" 1 (List.length r.Driver.stale);
  Alcotest.(check bool) "check-waivers fails on stale" false
    (Driver.ok ~check_waivers:true r)

let waiver_parse () =
  (match Waiver.parse ~file:"w" "R1 foo.ml x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an entry without a justification");
  (match Waiver.parse ~file:"w" "R9 foo.ml x -- hmm" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown rule id");
  match Waiver.parse ~file:"w" "# comment\n\nR1 a.ml * -- fine\n" with
  | Ok [ e ] ->
    Helpers.check_string "wildcard ident" "*" e.Waiver.w_ident;
    check_int "line number recorded" 3 e.Waiver.w_lineno
  | Ok _ -> Alcotest.fail "expected exactly one entry"
  | Error e -> Alcotest.fail e

let not_flagged () =
  let count src =
    match Driver.lint_source ~file:"inline.ml" src with
    | Ok fs -> List.length fs
    | Error e -> Alcotest.fail e
  in
  check_int "ref under fun is per-call state" 0 (count "let mk () = ref 0");
  check_int "Atomic.make is the sanctioned global" 0
    (count "let g = Atomic.make 0");
  check_int "Stdlib-qualified creation still caught" 1
    (count "let t = Stdlib.Hashtbl.create 4");
  check_int "submodule globals are module-level too" 1
    (count "module M = struct let c = ref 0 end");
  check_int "Random.State is explicit" 0
    (count "let ok st = Random.State.int st 6");
  check_int "typed raise is fine" 0
    (count "exception E of int\n\nlet f () = raise (E 1)");
  check_int "re-raise of a variable is fine" 0
    (count "let g f = try f () with e -> raise e");
  match Driver.lint_source ~file:"bad.ml" "let = 3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "syntax error should not lint clean"

(* R5 is path-gated: the same source is a finding inside a hot-path
   module and silent everywhere else. *)
let r5_hot_path () =
  let count file src =
    match Driver.lint_source ~file src with
    | Ok fs ->
      List.length (List.filter (fun f -> f.Finding.rule = "R5") fs)
    | Error e -> Alcotest.fail e
  in
  let src = "let f tbl k = Hashtbl.create 4, List.assoc_opt k tbl" in
  check_int "flagged in lib/core" 2 (count "lib/core/hot.ml" src);
  check_int "flagged in lib/ir" 2 (count "lib/ir/hot.ml" src);
  check_int "flagged in lib/frontend" 2 (count "lib/frontend/hot.ml" src);
  check_int "silent outside the hot path" 0 (count "lib/check/cold.ml" src);
  check_int "Int_table is the sanctioned structure" 0
    (count "lib/core/hot.ml" "let t = fun () -> Lslp_util.Int_table.create 8");
  let functor_src =
    "module H = Hashtbl.Make (Int)\n\
     module S = Stdlib.Hashtbl.MakeSeeded (struct\n\
    \  type t = int\n\
    \  let equal = Int.equal\n\
    \  let seeded_hash _ k = k\n\
     end)\n\
     let f () = H.create 4"
  in
  check_int "functor form flagged in lib/ir" 2
    (count "lib/ir/hot.ml" functor_src);
  check_int "flagged in lib/analysis" 2 (count "lib/analysis/hot.ml" src);
  check_int "flagged in the probe" 2 (count "lib/telemetry/probe.ml" src);
  check_int "other telemetry is cold" 0
    (count "lib/telemetry/report.ml" functor_src)

let registry () =
  check_int "five rules" 5 (List.length Rules.all);
  Alcotest.(check bool) "find by id" true (Rules.find "R1" <> None);
  Alcotest.(check bool) "find by slug" true
    (Rules.find "wall-clock" <> None);
  Alcotest.(check bool) "unknown key" true (Rules.find "R9" = None)

let suite =
  [
    tc "r1 global mutable state" r1;
    tc "r2 ambient random" r2;
    tc "r3 raise primitives" r3;
    tc "r4 wall clock" r4;
    tc "waiver applies" waived;
    tc "whole fixture dir" whole_dir;
    tc "rule filter" rule_filter;
    tc "stale waiver detected" stale;
    tc "waiver parsing" waiver_parse;
    tc "sanctioned patterns not flagged" not_flagged;
    tc "r5 boxed tables path-gated" r5_hot_path;
    tc "registry lookup" registry;
  ]
