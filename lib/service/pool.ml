(* The supervised Domain pool.

   One mutex guards all shared state; two condition variables split the
   waiters: [cond_work] wakes workers (job ready, or shutdown) and
   [cond_change] wakes the orchestrator (outcome recorded, worker died,
   queue space freed).  Workers run jobs outside the lock.

   Workers are loops, not domains.  Each worker loop runs on a parked
   domain taken from a process-wide idle set ([launch]); when the loop
   returns, [await] hands the domain back to the set, so consecutive
   batches reuse warm domains instead of paying a spawn, a join and a
   fresh minor heap every time.  The idle set is one [Atomic] list
   changed only by compare-and-set; it never holds more domains than
   were ever running at once.

   A worker loop compiles under the minor heap of the domain that
   launched it.  [Gc.set] resizes the calling domain's minor heap only,
   and every new domain starts at the startup size ([OCAMLRUNPARAM]'s [s],
   by default 256K words), so [launch] reads the launching domain's size
   and the loop resizes its own domain to it before running, only when
   the two differ.  A job then runs the minor collections the same
   compile would run on the caller's domain, and a parked domain follows
   the caller's setting from one loop to the next.

   Fault isolation is the point: any exception a job attempt lets escape —
   an injected [Inject.Fault], a [Budget.Deadline_expired] from the
   cooperative watchdog, a genuine pass bug — ends only that worker loop.
   The dying worker records a retry or a typed failure for its job under
   the lock, marks its slot dead and returns; the orchestrator awaits it
   and launches a replacement loop.  Nothing hangs and no job is ever
   lost: every submitted job ends in exactly one {!outcome}.

   Time is virtual.  Retry backoff is measured in scheduling ticks — the
   clock advances on every dispatch, completion and death — so a run
   never consults the wall clock (lint rule R4) and the backoff schedule
   is reproducible.  When every runnable job is sitting in the delayed
   list and nothing is in flight, the first idle worker fast-forwards the
   clock to the earliest ready_at instead of sleeping. *)

module Budget = Lslp_robust.Budget
module Inject = Lslp_robust.Inject
module Stats = Lslp_telemetry.Pool_stats

type failure =
  | Crashed of string
  | Timed_out of { steps : int }
  | Shed

type 'a outcome =
  | Done of 'a
  | Degraded_to_failure of { attempts : int; failure : failure }

type config = {
  domains : int;
  queue_cap : int;
  retries : int;
  backoff : int;
  deadline_steps : int option;
  inject_for : int -> Inject.t option;
  job_seed : int;
}

let default_config =
  {
    domains = 4;
    queue_cap = 64;
    retries = 2;
    backoff = 2;
    deadline_steps = None;
    inject_for = (fun _ -> None);
    job_seed = 0;
  }

let pp_failure ppf = function
  | Crashed msg -> Fmt.pf ppf "crashed: %s" msg
  | Timed_out { steps } -> Fmt.pf ppf "timed out after %d step(s)" steps
  | Shed -> Fmt.pf ppf "shed: queue full"

(* Each attempt gets its own injector derived from (job_seed, job, attempt)
   so a fault schedule is a pure function of the spec and those three ints,
   independent of which domain picks the job up or in what order. *)
let attempt_seed config ~job ~attempt =
  (((config.job_seed * 1_000_003) + job) * 8191) + attempt

let attempt_inject config ~job ~attempt =
  Option.map
    (fun spec -> Inject.reseed spec ~seed:(attempt_seed config ~job ~attempt))
    (config.inject_for job)

(* Admission rolls its own dice (salt -1): the queue-full fault must fire
   independently of what the job's first attempt would do. *)
let admission_sheds config ~job =
  match config.inject_for job with
  | None -> false
  | Some spec ->
    Inject.fires
      (Inject.reseed spec ~seed:(attempt_seed config ~job ~attempt:(-1)))
      Inject.Queue_full

(* ---- parked worker domains ---------------------------------------- *)

(* A parked domain waits while its state is [Finished], the state [await]
   leaves behind, until [launch] hands it the next thunk. *)
type state =
  | Running of (unit -> unit)
  | Finished of (exn * Printexc.raw_backtrace) option  (* [Some] = raised *)

type handle = { lock : Mutex.t; wake : Condition.t; mutable state : state }

(* Domains with no thunk to run.  A popped cons cell is never pushed
   again, so compare-and-set on the list cannot be fooled by ABA. *)
let idle : handle list Atomic.t = Atomic.make []

let rec push h =
  let l = Atomic.get idle in
  if not (Atomic.compare_and_set idle l (h :: l)) then push h

let rec pop () =
  match Atomic.get idle with
  | [] -> None
  | h :: rest as l ->
    if Atomic.compare_and_set idle l rest then Some h else pop ()

(* The body of a parked domain: run each thunk handed over, report how it
   ended, wait for the next.  A thunk that raised ends the domain. *)
let rec park h =
  Mutex.lock h.lock;
  let rec next () =
    match h.state with
    | Running f -> f
    | Finished _ ->
      Condition.wait h.wake h.lock;
      next ()
  in
  let f = next () in
  Mutex.unlock h.lock;
  let ended =
    match f () with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock h.lock;
  h.state <- Finished ended;
  Condition.signal h.wake;
  Mutex.unlock h.lock;
  match ended with None -> park h | Some _ -> ()

let launch f =
  let words = (Gc.get ()).Gc.minor_heap_size in
  let f () =
    let gc = Gc.get () in
    if gc.Gc.minor_heap_size <> words then
      Gc.set { gc with Gc.minor_heap_size = words };
    f ()
  in
  match pop () with
  | Some h ->
    Mutex.lock h.lock;
    h.state <- Running f;
    Condition.signal h.wake;
    Mutex.unlock h.lock;
    h
  | None ->
    let h =
      { lock = Mutex.create (); wake = Condition.create (); state = Running f }
    in
    ignore (Domain.spawn (fun () -> park h) : unit Domain.t);
    h

let await h =
  Mutex.lock h.lock;
  let rec finished () =
    match h.state with
    | Finished ended -> ended
    | Running _ ->
      Condition.wait h.wake h.lock;
      finished ()
  in
  let ended = finished () in
  Mutex.unlock h.lock;
  match ended with
  | None -> push h
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt

(* ---- the pool ------------------------------------------------------ *)

let run (type a) ?metrics config
    (jobs :
      (string
      * (inject:Inject.t option -> deadline:Budget.deadline option -> a))
      array) : a outcome array =
  let n = Array.length jobs in
  let domains = max 1 config.domains in
  let retries = max 0 config.retries in
  let backoff = max 1 config.backoff in
  let queue_cap = max 1 config.queue_cap in
  let m = Mutex.create () in
  let cond_work = Condition.create () in
  let cond_change = Condition.create () in
  let outcomes : a outcome option array = Array.make n None in
  let ready : (int * int) Queue.t = Queue.create () in
  (* (ready_at vtick, job, attempt); unsorted, promoted when due *)
  let delayed = ref [] in
  let vtick = ref 0 in
  let in_flight = ref 0 in
  let recorded = ref 0 in
  let shutdown = ref false in
  let dead = ref [] in
  let handles : handle option array = Array.make domains None in
  let note ~job ?attempt ?seed ev =
    match metrics with
    | Some m -> Stats.record m ~tick:!vtick ~job ?attempt ?seed ev
    | None -> ()
  in
  (* virtual tick of each job's {e first} dispatch, so the latency
     histogram charges retries and backoff to the job that paid them *)
  let first_dispatch = Array.make n (-1) in
  (* all helpers below assume the lock is held *)
  let promote () =
    let due, later =
      List.partition (fun (at, _, _) -> at <= !vtick) !delayed
    in
    delayed := later;
    List.iter
      (fun (_, job, attempt) ->
        Queue.add (job, attempt) ready;
        Condition.signal cond_work)
      (List.sort compare due)
  in
  let tick () =
    incr vtick;
    promote ()
  in
  let record job outcome =
    outcomes.(job) <- Some outcome;
    incr recorded;
    Condition.signal cond_change
  in
  let worker slot =
    let continue_ = ref true in
    while !continue_ do
      Mutex.lock m;
      while (not !shutdown) && Queue.is_empty ready do
        if !delayed <> [] && !in_flight = 0 then begin
          (* everything runnable is backing off: fast-forward the clock *)
          let soonest =
            List.fold_left (fun acc (at, _, _) -> min acc at) max_int
              !delayed
          in
          vtick := max !vtick soonest;
          promote ()
        end
        else Condition.wait cond_work m
      done;
      if Queue.is_empty ready then begin
        (* shutdown with nothing left to run *)
        Mutex.unlock m;
        continue_ := false
      end
      else begin
        let job, attempt = Queue.pop ready in
        incr in_flight;
        tick ();
        let label = fst jobs.(job) in
        let seed = attempt_seed config ~job ~attempt in
        if first_dispatch.(job) < 0 then first_dispatch.(job) <- !vtick;
        note ~job:label ~attempt ~seed
          (Stats.Dispatched { depth = Queue.length ready });
        (* queue space freed: the orchestrator may admit the next job *)
        Condition.signal cond_change;
        Mutex.unlock m;
        let fn = snd jobs.(job) in
        let inject = attempt_inject config ~job ~attempt in
        let deadline = Option.map Budget.deadline config.deadline_steps in
        let result =
          match
            Inject.maybe_fail inject Inject.Worker_raise;
            (match inject with
             | Some i when Inject.fires i Inject.Worker_hang ->
               (* spin at the boundary until the watchdog cancels us *)
               Budget.deadline_spin deadline
             | _ -> ());
            fn ~inject ~deadline
          with
          | v -> Ok v
          | exception Budget.Deadline_expired { steps } ->
            Error (Timed_out { steps })
          | exception e -> Error (Crashed (Printexc.to_string e))
        in
        Mutex.lock m;
        decr in_flight;
        (match result with
         | Ok v ->
           record job (Done v);
           tick ();
           note ~job:label ~attempt ~seed
             (Stats.Completed
                {
                  attempts = attempt + 1;
                  latency = !vtick - first_dispatch.(job);
                  depth = Queue.length ready;
                });
           if !in_flight = 0 && !delayed <> [] then
             Condition.broadcast cond_work;
           Mutex.unlock m
         | Error failure ->
           (* job-fatal: record the job's fate, then this worker dies *)
           note ~job:label ~attempt ~seed
             (match failure with
              | Timed_out { steps } -> Stats.Timeout { steps }
              | Crashed msg -> Stats.Crashed msg
              | Shed -> assert false (* shedding happens at admission *));
           if attempt < retries then begin
             let delay = backoff * (1 lsl attempt) in
             delayed := (!vtick + delay, job, attempt + 1) :: !delayed;
             note ~job:label ~attempt:(attempt + 1)
               ~seed:(attempt_seed config ~job ~attempt:(attempt + 1))
               (Stats.Retried { delay })
           end
           else begin
             record job
               (Degraded_to_failure { attempts = attempt + 1; failure });
             note ~job:label ~attempt ~seed
               (Stats.Failed { attempts = attempt + 1 })
           end;
           dead := slot :: !dead;
           Condition.signal cond_change;
           tick ();
           if !in_flight = 0 && !delayed <> [] then
             Condition.broadcast cond_work;
           Mutex.unlock m;
           continue_ := false)
      end
    done
  in
  let start slot = handles.(slot) <- Some (launch (fun () -> worker slot)) in
  for slot = 0 to domains - 1 do
    start slot
  done;
  let next = ref 0 in
  Mutex.lock m;
  while !recorded < n do
    (* await and replace dead workers *)
    (match !dead with
     | [] -> ()
     | slots ->
       dead := [];
       Mutex.unlock m;
       List.iter
         (fun slot ->
           match handles.(slot) with
           | Some h -> await h
           | None -> ())
         slots;
       Mutex.lock m;
       List.iter
         (fun slot ->
           start slot;
           note ~job:"" (Stats.Respawn { slot }))
         slots);
    (* admit while the bounded queue has space — blocking here when it
       does not is the backpressure *)
    let progressed = ref false in
    while !next < n && Queue.length ready < queue_cap do
      let job = !next in
      incr next;
      progressed := true;
      let label = fst jobs.(job) in
      if admission_sheds config ~job then begin
        record job (Degraded_to_failure { attempts = 0; failure = Shed });
        note ~job:label Stats.Shed
      end
      else begin
        Queue.add (job, 0) ready;
        note ~job:label Stats.Enqueued;
        Condition.signal cond_work
      end
    done;
    if !recorded < n && (not !progressed) && !dead = [] then
      Condition.wait cond_change m
  done;
  shutdown := true;
  Condition.broadcast cond_work;
  Mutex.unlock m;
  Array.iter (function Some h -> await h | None -> ()) handles;
  Array.map
    (function
      | Some o -> o
      | None -> assert false (* recorded = n implies every slot is filled *))
    outcomes
