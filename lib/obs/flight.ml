(* The flight recorder: a bounded ring of structured per-job lifecycle
   events.

   Always on and always bounded — [cap] slots, oldest overwritten first;
   each event's [seq] counts every record, so the first surviving [seq]
   is what the ring lost.  Events carry the pool's virtual tick, the job
   label, the attempt index and the attempt's injector seed, so a
   recorded fault schedule can be replayed exactly.  Events recorded off
   the pool clock (the cache runs under its own lock and does not see
   the pool's vtick) carry tick -1.

   Per-instance mutex; record order is the serialization order under that
   lock, which for a 1-domain pool equals program order — that is what
   lets `make metrics-check` pin a whole JSONL dump byte for byte. *)

module Json = Lslp_util.Json

type event = {
  seq : int;  (* monotonically increasing record index, overwritten ones
                 included *)
  tick : int;  (* pool virtual tick; -1 = recorded off the pool clock *)
  kind : string;
  job : string;
  attempt : int;  (* -1 when the event has no attempt (enqueue, shed) *)
  seed : int;  (* the attempt's injector seed; 0 when not applicable *)
  detail : string;
}

type t = {
  lock : Mutex.t;
  cap : int;
  ring : event option array;
  mutable next : int;  (* total events ever recorded: the next seq *)
}

let create ?(cap = 4096) () =
  let cap = max 1 cap in
  { lock = Mutex.create (); cap; ring = Array.make cap None; next = 0 }

let record t ~tick ~job ?(attempt = -1) ?(seed = 0) ?(detail = "") kind =
  Mutex.lock t.lock;
  let seq = t.next in
  t.ring.(seq mod t.cap) <- Some { seq; tick; kind; job; attempt; seed; detail };
  t.next <- seq + 1;
  Mutex.unlock t.lock

let events t =
  Mutex.lock t.lock;
  let n = t.next in
  let first = max 0 (n - t.cap) in
  let out =
    List.filter_map
      (fun i -> t.ring.(i mod t.cap))
      (List.init (n - first) (fun k -> first + k))
  in
  Mutex.unlock t.lock;
  out

let event_json (e : event) =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("tick", Json.Int e.tick);
      ("event", Json.Str e.kind);
      ("job", Json.Str e.job);
      ("attempt", Json.Int e.attempt);
      ("seed", Json.Int e.seed);
      ("detail", Json.Str e.detail);
    ]

let to_jsonl t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (event_json e));
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf
