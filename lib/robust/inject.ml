(* Deterministic fault injection.

   The fail-soft guarantees of the pipeline are only as good as their
   tests, and real pass failures are rare by construction — so we make our
   own.  An injection spec names a set of pass boundaries, a firing rate
   and a PRNG seed; the pipeline consults it at every boundary and raises
   {!Fault} when it fires.  The [Corrupt] point is different in kind: it
   does not raise, it scrambles the freshly generated block so that the
   in-transaction verifier (not the exception path) has to trigger the
   rollback, proving the check-then-revert route end to end.

   Everything is seeded and sequential, so a given (spec, input, config)
   triple always fires at exactly the same boundaries. *)

open Lslp_ir

type point =
  | Graph_build
  | Reorder
  | Codegen
  | Reduction
  | Cse
  | Dce
  | Verify
  | Corrupt
  (* service boundaries: fired by the Domain-pool executor (lib/service)
     around whole compile jobs, never inside the pipeline's transactions *)
  | Worker_raise
  | Worker_hang
  | Cache_poison
  | Queue_full

(* "all" keeps meaning every *pipeline* boundary: the fuzzer arms these as
   a set against a single pipeline run, where service points never fire. *)
let all_points =
  [ Graph_build; Reorder; Codegen; Reduction; Cse; Dce; Verify; Corrupt ]

let service_points = [ Worker_raise; Worker_hang; Cache_poison; Queue_full ]

let point_name = function
  | Graph_build -> "graph-build"
  | Reorder -> "reorder"
  | Codegen -> "codegen"
  | Reduction -> "reduction"
  | Cse -> "cse"
  | Dce -> "dce"
  | Verify -> "verify"
  | Corrupt -> "corrupt"
  | Worker_raise -> "worker-raise"
  | Worker_hang -> "worker-hang"
  | Cache_poison -> "cache-poison"
  | Queue_full -> "queue-full"

let point_of_name = function
  | "graph-build" -> Some Graph_build
  | "reorder" -> Some Reorder
  | "codegen" -> Some Codegen
  | "reduction" -> Some Reduction
  | "cse" -> Some Cse
  | "dce" -> Some Dce
  | "verify" -> Some Verify
  | "corrupt" -> Some Corrupt
  | "worker-raise" -> Some Worker_raise
  | "worker-hang" -> Some Worker_hang
  | "cache-poison" -> Some Cache_poison
  | "queue-full" -> Some Queue_full
  | _ -> None

type t = {
  points : point list;
  rate : float;
  seed : int;
  st : Random.State.t;
  mutable fired : int;
}

exception Fault of point

let make ?(points = all_points) ?(rate = 1.0) ~seed () =
  { points; rate; seed; st = Random.State.make [| seed |]; fired = 0 }

let fired t = t.fired

(* Same spec, fresh dice: the fuzzer derives one injector per case from a
   single parsed [--inject] spec. *)
let reseed t ~seed = make ~points:t.points ~rate:t.rate ~seed ()

(* "pass:rate:seed" with pass a point name or "all"; rate and seed optional
   ("codegen", "codegen:0.5" and "codegen:0.5:7" are all valid). *)
let parse spec =
  let parse_points = function
    | "all" -> Ok all_points
    | "service" -> Ok service_points
    | s -> (
      match point_of_name s with
      | Some p -> Ok [ p ]
      | None -> Error (Fmt.str "unknown injection point %S" s))
  in
  let build pass rate seed =
    match parse_points pass with
    | Error _ as e -> e
    | Ok points ->
      if rate < 0.0 || rate > 1.0 then
        Error (Fmt.str "injection rate %g is not in [0, 1]" rate)
      else Ok (make ~points ~rate ~seed ())
  in
  match String.split_on_char ':' spec with
  | [ pass ] -> build pass 1.0 0
  | [ pass; rate ] -> (
    match float_of_string_opt rate with
    | Some r -> build pass r 0
    | None -> Error (Fmt.str "bad injection rate %S" rate))
  | [ pass; rate; seed ] -> (
    match (float_of_string_opt rate, int_of_string_opt seed) with
    | Some r, Some s -> build pass r s
    | None, _ -> Error (Fmt.str "bad injection rate %S" rate)
    | _, None -> Error (Fmt.str "bad injection seed %S" seed))
  | _ -> Error (Fmt.str "bad injection spec %S (want pass[:rate[:seed]])" spec)

let fires t point =
  List.mem point t.points
  && (t.rate >= 1.0 || Random.State.float t.st 1.0 < t.rate)
  &&
  (t.fired <- t.fired + 1;
   true)

(* Raising points only: [Corrupt] never raises, it is queried via
   {!corrupts} after code generation. *)
let maybe_fail inj point =
  match inj with
  | Some t when point <> Corrupt && fires t point -> raise (Fault point)
  | Some _ | None -> ()

let corrupts inj =
  match inj with Some t -> fires t Corrupt | None -> false

(* Duplicate the first instruction at the end of the block: the structural
   verifier unconditionally rejects duplicate instruction identities, so
   this corruption is always caught — by the checker, not by an
   exception. *)
let corrupt_block (b : Block.t) =
  match Block.length b with
  | 0 -> false
  | _ ->
    Block.append b (Block.instrs b).(0);
    true

let pp ppf t =
  Fmt.pf ppf "%s:%g:%d"
    (if t.points = all_points then "all"
     else if t.points = service_points then "service"
     else String.concat "," (List.map point_name t.points))
    t.rate t.seed
