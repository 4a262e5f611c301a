(* The look-ahead score memo, priced per kernel: `make score-memo`.

   For every catalog kernel whose graph build breaks a tie with the
   look-ahead score (paper Listing 7), times one graph build three ways:
   LSLP with the score memo on, LSLP with it off, and LSLP at look-ahead
   depth 0 (no scoring at all, the floor the other two pay on top of).
   The region is the first seed, after unrolling by 4, whose LSLP build
   evaluates a score; its dependence graph is built once, outside the
   timing, as the pipeline shares it.  A time is the best of [rounds]
   batches of [builds] builds, in microseconds per build; each round runs
   one batch of each way in turn.  [evals] and
   [hits] are one memo-on build's score evaluations and memo hits; [off]
   is the evaluations with the memo off.

   Report-only: wall-clock numbers are machine noise, so nothing gates on
   this table.  The counters beside it are exact.

     scorememo [--rounds N] [--builds N] [--kernel KEY]   *)

open Lslp_ir
open Lslp_core
module Catalog = Lslp_kernels.Catalog
module Probe = Lslp_telemetry.Probe

let rounds = ref 15
let builds = ref 300
let only = ref ""
let unroll_factor = 4

let memo_on = Config.lslp
let memo_off = Config.with_score_cache false Config.lslp
let depth0 = Config.lslp_la 0

let build config block deps seed =
  ignore (Graph_builder.build ~deps config block seed)

let counters config block deps seed =
  let probe = Probe.create () in
  ignore (Graph_builder.build ~probe ~deps config block seed);
  Probe.counters probe

(* The first seed, in block order, whose memo-on build scores. *)
let scored_region (k : Catalog.kernel) =
  let f = Catalog.compile k in
  ignore (Lslp_frontend.Unroll.run ~factor:unroll_factor f);
  List.find_map
    (fun block ->
      let arena = Arena.of_block block in
      let deps = Lslp_analysis.Depgraph.build_arena arena in
      List.find_map
        (fun seed ->
          let c = counters memo_on block deps seed in
          if c.Probe.score_evals > 0 then Some (block, deps, seed, c)
          else None)
        (Seeds.collect ~arena memo_on block))
    (Func.blocks f)

(* Microseconds per build, best batch of each config; the three configs'
   batches alternate within a round, so drift in the machine's speed
   reaches all three alike. *)
let best_us configs block deps seed =
  let best = Array.make (List.length configs) infinity in
  for _ = 1 to !rounds do
    List.iteri
      (fun j config ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to !builds do
          build config block deps seed
        done;
        let dt = (Unix.gettimeofday () -. t0) /. float_of_int !builds in
        if dt < best.(j) then best.(j) <- dt)
      configs
  done;
  Array.map (fun t -> t *. 1e6) best

(* The machine the times were taken on, as far as the OS tells. *)
let host () =
  let model =
    match open_in "/proc/cpuinfo" with
    | exception Sys_error _ -> None
    | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | l -> (
          match String.index_opt l ':' with
          | Some i when String.length l > 10 && String.sub l 0 10 = "model name"
            ->
            Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          | Some _ | None -> scan ())
      in
      let m = scan () in
      close_in ic;
      m
  in
  Fmt.str "%s, %d cores visible to OCaml"
    (Option.value model ~default:"unknown CPU")
    (Domain.recommended_domain_count ())

let () =
  Arg.parse
    [
      ("--rounds", Arg.Set_int rounds, "N batches per time (default 15)");
      ("--builds", Arg.Set_int builds,
       "N graph builds per batch (default 300)");
      ("--kernel", Arg.Set_string only, "KEY time this catalog kernel only");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "scorememo [--rounds N] [--builds N] [--kernel KEY]";
  Fmt.pr
    "Look-ahead score memo: one LSLP graph build per kernel (unroll %d, \
     first scored seed,@.dependence graph prebuilt), best of %d x %d, us \
     per build.@.host: %s@.@."
    unroll_factor !rounds !builds (host ());
  Fmt.pr "%-24s %-10s %8s %9s %8s %6s %6s %6s@." "kernel" "seed" "memo on"
    "memo off" "depth 0" "evals" "hits" "off";
  List.iter
    (fun (k : Catalog.kernel) ->
      let wanted = !only = "" || String.equal !only k.Catalog.key in
      match if wanted then scored_region k else None with
      | None -> ()
      | Some (block, deps, seed, c) ->
        let off = counters memo_off block deps seed in
        let us = best_us [ memo_on; memo_off; depth0 ] block deps seed in
        Fmt.pr "%-24s %-10s %8.1f %9.1f %8.1f %6d %6d %6d@." k.Catalog.key
          (Seeds.describe seed) us.(0) us.(1) us.(2) c.Probe.score_evals
          c.Probe.score_hits off.Probe.score_evals)
    Catalog.all
