(* Host-speed calibration.

   The benchmark runs on shared machines whose cores slow down and speed
   up by tens of percent within seconds, whatever the process does.  A
   fixed unit of allocation-heavy, pointer-chasing work — map inserts, a
   list sort, buffer appends, like a compiler's — is run in short slices
   interleaved with the workload, and every timing is scaled by
   [nominal_per_s] / (the unit's rate in the same window): the result reads
   as if measured on a machine running the unit at its nominal rate.  The
   unit uses the standard library only, so no change to the compiler can
   change its cost. *)

module Int_map = Map.Make (Int)

let unit_of_work () =
  let m = ref Int_map.empty in
  for i = 0 to 399 do
    m := Int_map.add ((i * 7919) land 1023) i !m
  done;
  let b = Buffer.create 16 in
  Int_map.iter
    (fun k v -> if k land 7 = 0 then Buffer.add_string b (string_of_int (k + v)))
    !m;
  let l = List.sort compare (List.init 300 (fun i -> (i * 31) land 1023)) in
  Int_map.cardinal !m + Buffer.length b + List.length l

(* Units per second and domain of this kernel, run on 1 or 2 domains at
   once, on the uncontended 2-core Intel Xeon (2.1 GHz) virtual machine
   the benchmark was defined on.  Two domains run it slower per domain:
   their minor collections stop both. *)
let nominal_per_s = function 1 -> 13_500. | _ -> 4_300.

let run units =
  let live = ref 0 in
  for _ = 1 to units do
    live := !live + unit_of_work ()
  done;
  ignore (Sys.opaque_identity !live)

(* Run [units] units on each of [domains] domains at once (the helpers
   freshly spawned, as the compile service's pool spawns its workers);
   returns the nanoseconds until all finished.  The minor heap is emptied
   first, untimed, so the slice does not pay for collecting the workload's
   young objects. *)
let slice ?(domains = 1) units =
  Gc.minor ();
  let t0 = Span.now_ns () in
  let helpers = List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> run units)) in
  run units;
  List.iter Domain.join helpers;
  Span.now_ns () - t0

(* Time-scaling factor for a window whose calibration ran [units] per
   domain in [ns]: multiply a duration by it, divide a rate by it. *)
let factor ?(domains = 1) ~units ~ns () =
  if units = 0 || ns = 0 then 1.
  else float_of_int units /. (float_of_int ns /. 1e9) /. nominal_per_s domains
