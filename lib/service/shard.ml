(* Sharded fuzzing on the pool.

   Each fuzz case is one pool job running [Fuzz.case], a pure function of
   (arm, inject spec, seed, case) — independent of which domain runs it,
   in what order, or after how many retries.  [check_against_sequential]
   proves it per run: re-derive every case sequentially in the calling
   domain and compare the outcomes structurally. *)

module Fuzz = Lslp_fuzz.Fuzz

let run ?arm ?inject_spec ~pool ~cases ~seed () =
  let jobs =
    Array.init cases (fun case ->
        ( Fmt.str "case-%d" case,
          fun ~inject:_ ~deadline:_ -> Fuzz.case ?arm ?inject_spec ~seed case
        ))
  in
  Array.mapi
    (fun case -> function
      | Pool.Done o -> o
      | Pool.Degraded_to_failure { failure; _ } ->
        Fuzz.Failed
          {
            case;
            desc = "(not run)";
            config_name = "(pool)";
            injected = None;
            problem = Fmt.str "pool: %a" Pool.pp_failure failure;
          })
    (Pool.run pool jobs)

let check_against_sequential ?arm ?inject_spec ~seed outcomes =
  List.filter
    (fun case -> outcomes.(case) <> Fuzz.case ?arm ?inject_spec ~seed case)
    (List.init (Array.length outcomes) Fun.id)
