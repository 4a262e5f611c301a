(* In-memory span tracer for the benchmark's traced run.

   Spans are recorded from the benchmark's own files, around its calls into
   each layer's public functions — never from inside the compiler.  One
   [ctx] serves one request (a compile or a service job) on one domain; the
   hot path only writes preallocated int and float arrays, so the tracer
   allocates nothing while a request runs and the allocated-word counts it
   attributes to layers belong to the layers alone.

   A span's self time (and self allocation) is its duration minus the part
   covered by its child spans.  When a request ends its context is merged
   into a shared [summary] under a mutex: per-name totals plus a bounded
   buffer of individual spans, written out at the end as Chrome trace-event
   JSON (Perfetto opens it). *)

module Json = Lslp_util.Json

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Span names, int-indexed so the hot path does no string work. *)
let compile = 0
let job = 1
let parse = 2
let lower = 3
let unroll = 4
let pipeline = 5
let arena = 6
let seeds = 7
let depgraph = 8
let graph_build = 9
let cost = 10
let codegen = 11
let verify = 12
let reduction = 13
let cse = 14
let dce = 15
let print = 16
let normalize = 17
let snapshot = 18
let lookup = 19
let insert = 20

let names =
  [| "bench.compile"; "service.job"; "frontend.parse"; "frontend.lower";
     "frontend.unroll"; "core.pipeline"; "ir.arena"; "core.seeds";
     "analysis.depgraph"; "core.graph_build"; "core.cost"; "core.codegen";
     "ir.verify"; "core.reduction"; "ir.cse"; "ir.dce"; "ir.print";
     "util.normalize"; "check.snapshot"; "cache.lookup"; "cache.insert" |]

let count = Array.length names

(* The repo module group a span belongs to; cache spans are the service
   layer's. *)
let layer id =
  let n = names.(id) in
  match String.sub n 0 (String.index n '.') with
  | "cache" -> "service"
  | l -> l

let max_depth = 32
let span_cap = 256

type ctx = {
  mutable req : int;
  mutable depth : int;
  f_name : int array;
  f_start : int array;
  f_child_ns : int array;
  f_slot : int array;
  f_words : Float.Array.t;
  f_child_words : Float.Array.t;
  self_ns : int array;
  incl_ns : int array;
  calls : int array;
  self_words : Float.Array.t;
  mutable n : int;
  s_name : int array;
  s_parent : int array;
  s_start : int array;
  s_end : int array;
  s_words : Float.Array.t;
}

let create_ctx () =
  {
    req = 0;
    depth = 0;
    f_name = Array.make max_depth 0;
    f_start = Array.make max_depth 0;
    f_child_ns = Array.make max_depth 0;
    f_slot = Array.make max_depth (-1);
    f_words = Float.Array.make max_depth 0.;
    f_child_words = Float.Array.make max_depth 0.;
    self_ns = Array.make count 0;
    incl_ns = Array.make count 0;
    calls = Array.make count 0;
    self_words = Float.Array.make count 0.;
    n = 0;
    s_name = Array.make span_cap 0;
    s_parent = Array.make span_cap (-1);
    s_start = Array.make span_cap 0;
    s_end = Array.make span_cap 0;
    s_words = Float.Array.make span_cap 0.;
  }

let reset ctx ~req =
  ctx.req <- req;
  ctx.depth <- 0;
  ctx.n <- 0;
  Array.fill ctx.self_ns 0 count 0;
  Array.fill ctx.incl_ns 0 count 0;
  Array.fill ctx.calls 0 count 0;
  Float.Array.fill ctx.self_words 0 count 0.

let enter ctx name =
  let d = ctx.depth in
  ctx.f_name.(d) <- name;
  ctx.f_child_ns.(d) <- 0;
  Float.Array.set ctx.f_child_words d 0.;
  (if ctx.n < span_cap then begin
     let k = ctx.n in
     ctx.s_name.(k) <- name;
     ctx.s_parent.(k) <- (if d > 0 then ctx.f_slot.(d - 1) else -1);
     ctx.f_slot.(d) <- k;
     ctx.n <- k + 1
   end
   else ctx.f_slot.(d) <- -1);
  ctx.depth <- d + 1;
  Float.Array.set ctx.f_words d (Gc.minor_words ());
  ctx.f_start.(d) <- now_ns ()

let leave ctx =
  let t = now_ns () in
  let w = Gc.minor_words () in
  let d = ctx.depth - 1 in
  ctx.depth <- d;
  let name = ctx.f_name.(d) in
  let dur = t - ctx.f_start.(d) in
  let dw = w -. Float.Array.get ctx.f_words d in
  let self_w = dw -. Float.Array.get ctx.f_child_words d in
  ctx.self_ns.(name) <- ctx.self_ns.(name) + dur - ctx.f_child_ns.(d);
  ctx.incl_ns.(name) <- ctx.incl_ns.(name) + dur;
  ctx.calls.(name) <- ctx.calls.(name) + 1;
  Float.Array.set ctx.self_words name
    (Float.Array.get ctx.self_words name +. self_w);
  if d > 0 then begin
    ctx.f_child_ns.(d - 1) <- ctx.f_child_ns.(d - 1) + dur;
    Float.Array.set ctx.f_child_words (d - 1)
      (Float.Array.get ctx.f_child_words (d - 1) +. dw)
  end;
  let k = ctx.f_slot.(d) in
  if k >= 0 then begin
    ctx.s_start.(k) <- ctx.f_start.(d);
    ctx.s_end.(k) <- t;
    Float.Array.set ctx.s_words k self_w
  end

(* Time [f] as a span named [name]; the span closes on the exception path
   too, so nesting survives a failing pass. *)
let with_ ctx name f =
  enter ctx name;
  match f () with
  | v ->
    leave ctx;
    v
  | exception e ->
    leave ctx;
    raise e

type event = {
  e_name : int;
  e_req : int;
  e_tid : int;
  e_parent : int;  (* name of the parent span, -1 for a root *)
  e_start : int;
  e_end : int;
  e_words : float;
}

type summary = {
  m : Mutex.t;
  t_self_ns : int array;
  t_incl_ns : int array;
  t_calls : int array;
  t_self_words : float array;
  mutable requests : int;
  mutable events : event list;  (* newest first, at most [keep] *)
  mutable kept : int;
  mutable dropped : int;
  keep : int;
  next_req : int Atomic.t;  (* request ids, unique per summary *)
}

let summary ?(keep = 20_000) () =
  {
    m = Mutex.create ();
    t_self_ns = Array.make count 0;
    t_incl_ns = Array.make count 0;
    t_calls = Array.make count 0;
    t_self_words = Array.make count 0.;
    requests = 0;
    events = [];
    kept = 0;
    dropped = 0;
    keep;
    next_req = Atomic.make 0;
  }

let merge s ctx =
  let tid = (Domain.self () :> int) in
  Mutex.lock s.m;
  for i = 0 to count - 1 do
    s.t_self_ns.(i) <- s.t_self_ns.(i) + ctx.self_ns.(i);
    s.t_incl_ns.(i) <- s.t_incl_ns.(i) + ctx.incl_ns.(i);
    s.t_calls.(i) <- s.t_calls.(i) + ctx.calls.(i);
    s.t_self_words.(i) <- s.t_self_words.(i) +. Float.Array.get ctx.self_words i
  done;
  s.requests <- s.requests + 1;
  for k = 0 to ctx.n - 1 do
    if s.kept < s.keep then begin
      let p = ctx.s_parent.(k) in
      s.events <-
        {
          e_name = ctx.s_name.(k);
          e_req = ctx.req;
          e_tid = tid;
          e_parent = (if p >= 0 then ctx.s_name.(p) else -1);
          e_start = ctx.s_start.(k);
          e_end = ctx.s_end.(k);
          e_words = Float.Array.get ctx.s_words k;
        }
        :: s.events;
      s.kept <- s.kept + 1
    end
    else s.dropped <- s.dropped + 1
  done;
  Mutex.unlock s.m

(* One context per domain, reused across the requests that domain runs. *)
let ctx_key = Domain.DLS.new_key create_ctx

(* Run one request under a root span [root] and fold it into [s]; spans of
   one request share its id. *)
let request s ~root f =
  let ctx = Domain.DLS.get ctx_key in
  reset ctx ~req:(Atomic.fetch_and_add s.next_req 1);
  let v = with_ ctx root (fun () -> f ctx) in
  merge s ctx;
  v

(* Per-request means over the whole summary. *)
let per_request s total =
  if s.requests = 0 then 0. else float_of_int total /. float_of_int s.requests

let self_us s id = per_request s s.t_self_ns.(id) /. 1000.
let incl_us s id = per_request s s.t_incl_ns.(id) /. 1000.

let chrome_json s =
  let evs = List.rev s.events in
  let t0 = List.fold_left (fun acc e -> min acc e.e_start) max_int evs in
  let us ns = Json.Float (float_of_int ns /. 1000.) in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("name", Json.Str names.(e.e_name));
                   ("cat", Json.Str (layer e.e_name));
                   ("ph", Json.Str "X");
                   ("ts", us (e.e_start - t0));
                   ("dur", us (e.e_end - e.e_start));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int e.e_tid);
                   ( "args",
                     Json.Obj
                       [
                         ("req", Json.Int e.e_req);
                         ( "parent",
                           if e.e_parent < 0 then Json.Null
                           else Json.Str names.(e.e_parent) );
                         ("self_alloc_words", Json.Float e.e_words);
                       ] );
                 ])
             evs) );
      ("displayTimeUnit", Json.Str "ns");
      ( "otherData",
        Json.Obj
          [
            ("requests", Json.Int s.requests);
            ("spans_kept", Json.Int s.kept);
            ("spans_dropped", Json.Int s.dropped);
          ] );
    ]

let write_chrome s path =
  let oc = open_out_bin path in
  output_string oc (Json.to_string (chrome_json s));
  output_char oc '\n';
  close_out oc
