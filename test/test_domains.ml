(* Domain-pool determinism: the whole catalog compiled on 4 concurrent
   domains must reproduce the sequential IR, remarks and telemetry
   counters byte for byte.  Each function numbers its own instructions,
   so concurrent compiles cannot perturb each other's labels.  The lslpc
   `domains` subcommand runs the same proof on the compile service's
   pool in CI. *)

module Catalog = Lslp_kernels.Catalog
module Pipeline = Lslp_core.Pipeline
module Config = Lslp_core.Config

let config = Config.(lslp |> with_remarks true |> with_validate true)

let snapshot (k : Catalog.kernel) =
  let f = Catalog.compile k in
  ignore (Lslp_frontend.Unroll.run ~factor:4 f);
  let report, g = Pipeline.run_cloned ~config f in
  let ir = Lslp_ir.Printer.func_to_string g in
  let remarks =
    String.concat "\n"
      (List.map (Fmt.str "%a" Lslp_check.Remark.pp) report.Pipeline.remarks)
  in
  let counters =
    let c =
      Lslp_telemetry.Report.total_counters report.Pipeline.telemetry
    in
    String.concat ","
      (List.map
         (fun (n, get) -> Fmt.str "%s=%d" n (get c))
         Lslp_telemetry.Probe.counter_fields)
  in
  (k.key, ir, remarks, counters)

let full () = List.map snapshot Catalog.all

let determinism () =
  let baseline = full () in
  let pool = List.init 4 (fun _ -> Domain.spawn full) in
  List.iteri
    (fun d rows ->
      List.iter2
        (fun (key, ir, rem, ctr) (_, ir', rem', ctr') ->
          let eq what a b =
            Helpers.check_string (Fmt.str "domain %d: %s: %s" d key what)
              a b
          in
          eq "IR" ir ir';
          eq "remarks" rem rem';
          eq "counters" ctr ctr')
        baseline rows)
    (List.map Domain.join pool)

let suite = [ Helpers.tc "catalog x 4 domains" determinism ]
