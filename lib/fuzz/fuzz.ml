(* The differential fuzzer.

   Property: for ANY generated program, ANY configuration, with or without
   injected faults, [Pipeline.run]

   - never lets an exception escape,
   - leaves a structurally valid function behind, and
   - preserves observable behaviour against the scalar oracle
     ([Lslp_interp.Oracle], relative tolerance 1e-6 for fast-math
     reassociation);
   - with validation on and no faults armed, produces zero diagnostics;
   - with no faults armed, degrades no region for any reason but a spent
     resource budget.

   Case k is a pure function of (arm, inject spec, seed, k): program,
   configuration draw, validate flag and injector all come from one PRNG
   seeded by (seed, k), so a failing case reproduces from [--seed] and its
   case number alone, and a Domain pool may run the cases in any order. *)

open Lslp_ir
open Lslp_core
module Inject = Lslp_robust.Inject

type failure = {
  case : int;
  desc : string;          (* the generated program, printable *)
  config_name : string;
  injected : string option;
  problem : string;
}

type arm = Classic of Config.t option | Cond | Cache_diff

type outcome =
  | Passed of {
      config_name : string;
      vectorized : int;
      degraded : int;
      injected : bool;
    }
  | Failed of failure

type stats = {
  cases : int;
  failures : failure list;
  vectorized : int;       (* regions vectorized across all cases *)
  degraded : int;         (* regions degraded across all cases *)
  injected_runs : int;    (* cases that ran with an armed injector *)
}

let config_pool =
  [| Config.slp_nr; Config.slp; Config.lslp; Config.lslp_la 0;
     Config.lslp_la 2; Config.lslp_multi 1; Config.lslp_multi 2 |]

let unroll_factor = 4

let compile config reference =
  let candidate = Func.clone reference in
  ignore (Lslp_frontend.Unroll.run ~factor:unroll_factor candidate);
  let report = Pipeline.run ~config candidate in
  (report, candidate)

let counts (r : Pipeline.report) =
  (r.Pipeline.vectorized_regions, r.Pipeline.degraded_regions)

(* The first region rolled back for any reason but a spent budget, in a
   run with no fault armed: a pass failed on its own. *)
let unforced_degradation ~faults (r : Pipeline.report) =
  if faults then None
  else
    List.find_map
      (fun (rm : Lslp_check.Remark.t) ->
        match rm.Lslp_check.Remark.outcome with
        | Lslp_check.Remark.Degraded { pass; error } ->
          Some
            (Fmt.str "region %s degraded with no fault armed: %s: %s"
               rm.Lslp_check.Remark.region pass error)
        | _ -> None)
      r.Pipeline.regions

(* Classic and cond arms: one pipeline run, checked for the properties
   above.  Diagnostics and degradations only count when no fault was
   armed. *)
let against_oracle ~config ~faults reference =
  let report, candidate = compile config reference in
  match Verifier.check_func candidate with
  | e :: _ -> Error (Fmt.str "invalid IR: %s" (Verifier.error_to_string e))
  | [] -> (
    let diag_errors =
      Lslp_check.Diagnostic.errors report.Pipeline.diagnostics
    in
    match unforced_degradation ~faults report with
    | Some problem -> Error problem
    | None when (not faults) && diag_errors <> [] ->
      Error
        (Fmt.str "legality diagnostics: %s"
           (Lslp_check.Diagnostic.summary diag_errors))
    | None
      when not
             (Lslp_interp.Oracle.equivalent ~tol:1e-6 ~reference ~candidate
                ()) ->
      Error "oracle mismatch vs scalar reference"
    | None -> Ok (counts report))

(* Cache-diff arm: the same program through the same configuration with
   the memoized look-ahead scorer on and off must produce byte-identical IR
   (both runs compile a clone of one function, so they number alike),
   identical remarks and identical region counts.  No fault is ever armed,
   so no region may degrade but for a budget. *)
let cache_differential ~config reference =
  let config = Config.with_remarks true config in
  let run_one cache =
    let report, candidate =
      compile (Config.with_score_cache cache config) reference
    in
    (report, Printer.func_to_string candidate)
  in
  let (cached, ir_cached), (uncached, ir_uncached) =
    (run_one true, run_one false)
  in
  let remarks r =
    List.map (Fmt.str "%a" Lslp_check.Remark.pp) r.Pipeline.remarks
  in
  match unforced_degradation ~faults:false cached with
  | Some problem -> Error problem
  | None when ir_cached <> ir_uncached ->
    Error "cached and uncached runs produced different IR"
  | None when remarks cached <> remarks uncached ->
    Error "cached and uncached runs produced different remarks"
  | None when counts cached <> counts uncached ->
    Error "cached and uncached runs transformed different regions"
  | None -> Ok (counts cached)

let case ?(arm = Classic None) ?inject_spec ~seed case : outcome =
  let st = Random.State.make [| seed; case; 0x5eed |] in
  let prog = Gen.generate ~cond_only:(arm = Cond) st in
  let desc = Gen.describe prog in
  (* drawn even when forced, so forcing the drawn config replays the case *)
  let drawn = config_pool.(Random.State.int st (Array.length config_pool)) in
  let base = match arm with Classic (Some c) -> c | _ -> drawn in
  let validate = Random.State.bool st in
  let case_seed = (seed * 1_000_003) + case in
  let inject =
    match (arm, inject_spec) with
    | Cache_diff, _ ->
      (* an armed injector advances its own RNG per probe, so the cached
         and uncached runs would diverge for reasons unrelated to the
         cache *)
      None
    | _, Some spec -> Some (Inject.reseed spec ~seed:case_seed)
    | _, None ->
      (* no spec given: arm a random low-rate injector on a quarter of the
         cases so the default fuzz run still exercises the rollback path *)
      if Random.State.int st 4 = 0 then
        Some
          (Inject.make
             ~rate:(0.25 +. Random.State.float st 0.75)
             ~seed:case_seed ())
      else None
  in
  let config =
    let c = Config.with_validate validate base in
    match inject with Some i -> Config.with_inject i c | None -> c
  in
  let config_name = base.Config.name in
  let result =
    match Gen.build prog with
    | exception e ->
      Error (Fmt.str "generator crashed: %s" (Printexc.to_string e))
    | reference -> (
      (* one handler for the whole case, so no exception leaves it: the
         sequential and the pooled sweep then see the same outcome *)
      try
        match arm with
        | Cache_diff -> cache_differential ~config reference
        | Classic _ | Cond ->
          against_oracle ~config ~faults:(inject <> None) reference
      with e ->
        Error (Fmt.str "pipeline or check raised %s" (Printexc.to_string e)))
  in
  match result with
  | Ok (vectorized, degraded) ->
    Passed { config_name; vectorized; degraded; injected = inject <> None }
  | Error problem ->
    Failed
      {
        case;
        desc;
        config_name;
        injected = Option.map (Fmt.str "%a" Inject.pp) inject;
        problem;
      }

let stats outcomes =
  Array.fold_right
    (fun o s ->
      match o with
      | Passed p ->
        {
          s with
          vectorized = s.vectorized + p.vectorized;
          degraded = s.degraded + p.degraded;
          injected_runs = (s.injected_runs + if p.injected then 1 else 0);
        }
      | Failed f ->
        {
          s with
          failures = f :: s.failures;
          injected_runs =
            (s.injected_runs + if f.injected <> None then 1 else 0);
        })
    outcomes
    {
      cases = Array.length outcomes;
      failures = [];
      vectorized = 0;
      degraded = 0;
      injected_runs = 0;
    }

let run ?(cases = 500) ?(seed = 42) ?arm ?inject_spec () : stats =
  stats (Array.init cases (case ?arm ?inject_spec ~seed))

let pp_failure ppf (f : failure) =
  Fmt.pf ppf "case %d (%s): %s@,  program: %s%a" f.case f.config_name
    f.problem f.desc
    (fun ppf -> function
      | Some i -> Fmt.pf ppf "@,  injected: %s" i
      | None -> ())
    f.injected

(* Stable summary on stdout (safe to pin in cram tests across OCaml
   versions); RNG-dependent counters go through {!pp_detail}, which the CLI
   sends to stderr. *)
let pp_summary ppf s =
  Fmt.pf ppf "@[<v>fuzz: %d case(s): %d failure(s)" s.cases
    (List.length s.failures);
  List.iter (fun f -> Fmt.pf ppf "@,%a" pp_failure f) s.failures;
  Fmt.pf ppf "@]"

let pp_detail ppf s =
  Fmt.pf ppf "%d region(s) vectorized, %d degraded, %d/%d case(s) with faults"
    s.vectorized s.degraded s.injected_runs s.cases

(* Machine form, shared emitter (same style as remarks and telemetry). *)
module Json = Lslp_util.Json

let failure_json (f : failure) =
  Json.Obj
    [
      ("case", Json.Int f.case);
      ("problem", Json.Str f.problem);
      ("program", Json.Str f.desc);
      ("config", Json.Str f.config_name);
      ( "injected",
        match f.injected with Some i -> Json.Str i | None -> Json.Null );
    ]

let json s =
  Json.Obj
    [
      ("cases", Json.Int s.cases);
      ("failures", Json.Arr (List.map failure_json s.failures));
      ("vectorized", Json.Int s.vectorized);
      ("degraded", Json.Int s.degraded);
      ("injected_runs", Json.Int s.injected_runs);
      ("ok", Json.Bool (s.failures = []));
    ]

let to_json s = Json.to_string (json s)

let ok s = s.failures = []
