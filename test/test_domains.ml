(* Domain-pool determinism, the proof behind the compile service: the
   whole catalog compiled sequentially, then 8 more times as concurrent
   jobs on 8 domains of the service's pool, must reproduce the sequential
   IR, remarks and telemetry counters byte for byte.  Each function
   numbers its own instructions, so the promise is same structure, same
   numbering; every compile also checks that each output id lies in
   [1, next id) of its own function, so no arena compact index leaks into
   the IR.  `make domain-smoke` runs this suite alone. *)

module Catalog = Lslp_kernels.Catalog
module Pipeline = Lslp_core.Pipeline
module Config = Lslp_core.Config
module Pool = Lslp_service.Pool

let config = Config.(lslp |> with_remarks true |> with_validate true)
let domains = 8

let snapshot (k : Catalog.kernel) =
  let f = Catalog.compile k in
  ignore (Lslp_frontend.Unroll.run ~factor:4 f);
  let report, g = Pipeline.run_cloned ~config f in
  let high = Lslp_util.Id_gen.peek g.Lslp_ir.Func.ids in
  let stray_ids =
    Lslp_ir.Func.fold_instrs
      (fun acc (i : Lslp_ir.Instr.t) ->
        let id = i.Lslp_ir.Instr.id in
        if id < 1 || id >= high then id :: acc else acc)
      [] g
  in
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
  (stray_ids, ir, remarks, counters)

let no_stray_ids what ids =
  Alcotest.(check (list int)) (what ^ ": ids outside [1, next id)") [] ids

let determinism () =
  let kernels = Array.of_list Catalog.all in
  let nk = Array.length kernels in
  let baseline = Array.map snapshot kernels in
  (* every (copy, kernel) pair is one pool job; no retries, so a job that
     raises surfaces as a typed failure *)
  let jobs =
    Array.init (domains * nk) (fun idx ->
        ( Fmt.str "%s#%d" kernels.(idx mod nk).Catalog.key (idx / nk),
          fun ~inject:_ ~deadline:_ -> snapshot kernels.(idx mod nk) ))
  in
  let pool =
    { Pool.default_config with domains; queue_cap = 2 * domains;
      retries = 0 }
  in
  Array.iteri
    (fun idx outcome ->
      let key = kernels.(idx mod nk).Catalog.key in
      let what = Fmt.str "copy %d: %s" (idx / nk) key in
      match outcome with
      | Pool.Degraded_to_failure { failure; _ } ->
        Alcotest.failf "%s: job failed: %a" what Pool.pp_failure failure
      | Pool.Done (stray_ids, ir', rem', ctr') ->
        let _, ir, rem, ctr = baseline.(idx mod nk) in
        no_stray_ids what stray_ids;
        Helpers.check_string (what ^ ": IR") ir ir';
        Helpers.check_string (what ^ ": remarks") rem rem';
        Helpers.check_string (what ^ ": counters") ctr ctr')
    (Pool.run pool jobs);
  Array.iteri
    (fun idx (stray_ids, _, _, _) ->
      no_stray_ids ("sequential: " ^ kernels.(idx).Catalog.key) stray_ids)
    baseline

let suite = [ Helpers.tc "catalog x 8 domains" determinism ]
