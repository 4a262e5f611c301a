(* The verified result cache.

   Content-addressed: the canonical key is the digest of the printed input
   IR crossed with Config.fingerprint, so two textually different sources
   that lower to the same function share one entry and a config knob that
   changes output splits them.  A function numbers its own instruction
   ids, so the raw printed text is deterministic and needs no renaming.
   A second "front" table maps the digest of the raw (source, unroll,
   fingerprint) triple to the canonical key so a warm hit skips parsing
   entirely — without it the warm path would still pay the frontend,
   which costs more than a third of a full LSLP compile on the catalog.

   Check once, at insert; check what is served, on every hit.  Insert runs
   the legality validator over the compiled function against the
   dependence-graph snapshot taken before the pass (the function was
   compiled in place, so instruction identities still match and the check
   is not vacuous); a result that fails it is never stored.  An entry is
   immutable in everything a hit reads, so one validation proves what a
   per-hit replay would prove again.  A hit checks instead the payload it
   returns: the MD5 of the payload taken at insert is recomputed and
   compared.  A mismatch evicts the entry (and its source aliases) and
   the caller recompiles — which is exactly how an injected cache
   poisoning is survived.  Digest
   collisions of the key are guarded by comparing the stored input IR and
   fingerprint, not just the digest.

   One mutex per cache guards the two tables; finding, replacing and
   removing entries run under it, validation and digests do not.
   Poisoning installs a damaged copy of the entry, and a failed digest
   check evicts only if the table still holds the very entry it checked.
   Per-instance locked state, so lint R1 does not apply. *)

module Legality = Lslp_check.Legality
module Diagnostic = Lslp_check.Diagnostic
module Stats = Lslp_telemetry.Pool_stats

type cached = {
  ir : string;
  remarks : string list;
  counters : (string * int) list;
  vectorized : int;
}

type entry = {
  input_norm : string;  (* collision guard: exact pre-pass IR *)
  fingerprint : string;
  payload : cached;
  digest : Digest.t;  (* of [payload], taken at insert *)
  mutable aliases : string list;  (* front keys pointing here *)
}

type t = {
  m : Mutex.t;
  by_key : (string, entry) Hashtbl.t;  (* canonical digest -> entry *)
  by_source : (string, string) Hashtbl.t;  (* front digest -> canonical *)
  metrics : Stats.metrics;
}

let create ~metrics () =
  {
    m = Mutex.create ();
    by_key = Hashtbl.create 64;
    by_source = Hashtbl.create 64;
    metrics;
  }

let canonical_key ~input_norm ~fingerprint =
  Digest.to_hex (Digest.string (input_norm ^ "\x00" ^ fingerprint))

let source_key ~source ~unroll ~fingerprint =
  Digest.to_hex
    (Digest.string
       (source ^ "\x00" ^ string_of_int unroll ^ "\x00" ^ fingerprint))

(* MD5 of a canonical encoding of everything a hit returns.  The IR, the
   bulk of it, enters as its own MD5, so a hit copies no IR; every string
   is length-prefixed and each list ends in a byte no prefix starts with,
   so no two payloads encode alike. *)
let payload_digest p =
  let b = Buffer.create 256 in
  let add s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  add (Digest.string p.ir);
  List.iter add p.remarks;
  Buffer.add_char b '\x00';
  List.iter (fun (name, v) -> add name; add (string_of_int v)) p.counters;
  Buffer.add_char b '\x00';
  add (string_of_int p.vectorized);
  Digest.string (Buffer.contents b)

let length t =
  Mutex.lock t.m;
  let n = Hashtbl.length t.by_key in
  Mutex.unlock t.m;
  n

(* [Stats.record] locks for itself, so this runs with or without the
   cache lock.  Cache events carry tick -1: the cache does not see the
   pool's vclock. *)
let note t ~label ev = Stats.record t.metrics ~tick:(-1) ~job:label ev

(* A poisoned copy of the entry: one byte of the served IR flipped, so the
   injected fault damages exactly what a hit would return.  The shared
   entry is left as it was. *)
let poisoned entry =
  let flip i c = if i = 0 then Char.chr (Char.code c lxor 1) else c in
  let ir = String.mapi flip entry.payload.ir in
  { entry with payload = { entry.payload with ir } }

(* lock held.  Count the hit and apply any armed poisoning; returns the
   entry the digest check must see. *)
let claim_hit t ~label ~key entry ~poison =
  note t ~label (Stats.Cache_hit key);
  if poison then begin
    note t ~label (Stats.Cache_poison key);
    let entry = poisoned entry in
    Hashtbl.replace t.by_key key entry;
    entry
  end
  else entry

(* lock NOT held.  Compare the payload with its insert-time digest: equal
   -> reuse; anything else -> evict the entry and every front alias, and
   the caller recompiles.  Another domain may have evicted or replaced the
   entry meanwhile; then there is nothing left to evict here. *)
let check_hit t ~label ~key entry =
  if Digest.equal (payload_digest entry.payload) entry.digest then begin
    note t ~label (Stats.Cache_verified key);
    Some entry.payload
  end
  else begin
    Mutex.lock t.m;
    (match Hashtbl.find_opt t.by_key key with
     | Some current when current == entry ->
       Hashtbl.remove t.by_key key;
       List.iter (Hashtbl.remove t.by_source) entry.aliases;
       note t ~label
         (Stats.Cache_evicted { key; reason = "payload digest mismatch" })
     | Some _ | None -> ());
    Mutex.unlock t.m;
    None
  end

let find_by_source t ~label ~source_key ~poison =
  Mutex.lock t.m;
  let hit =
    match Hashtbl.find_opt t.by_source source_key with
    | None -> None (* front miss; not yet a cache miss — the caller
                      parses and retries by content *)
    | Some key -> (
      match Hashtbl.find_opt t.by_key key with
      | None ->
        (* stale alias left by an eviction race; drop it *)
        Hashtbl.remove t.by_source source_key;
        None
      | Some entry -> Some (key, claim_hit t ~label ~key entry ~poison))
  in
  Mutex.unlock t.m;
  match hit with
  | None -> None
  | Some (key, entry) -> check_hit t ~label ~key entry

let find_by_ir t ~label ~source_key ~input_norm ~fingerprint ~poison =
  let key = canonical_key ~input_norm ~fingerprint in
  Mutex.lock t.m;
  let hit =
    match Hashtbl.find_opt t.by_key key with
    | Some entry
      when entry.input_norm = input_norm
           && entry.fingerprint = fingerprint ->
      Some (claim_hit t ~label ~key entry ~poison)
    | Some _ (* digest collision: treat as a miss, never trust it *)
    | None ->
      note t ~label (Stats.Cache_miss key);
      None
  in
  Mutex.unlock t.m;
  match hit with
  | None -> None
  | Some entry -> (
    match check_hit t ~label ~key entry with
    | None -> None
    | Some payload ->
      (* remember the new spelling of this input for next time, unless
         the entry was replaced or evicted while we checked it *)
      Mutex.lock t.m;
      (match Hashtbl.find_opt t.by_key key with
       | Some current
         when current == entry && not (Hashtbl.mem t.by_source source_key) ->
         Hashtbl.replace t.by_source source_key key;
         entry.aliases <- source_key :: entry.aliases
       | Some _ | None -> ());
      Mutex.unlock t.m;
      Some payload)

(* Validation and the digest run before the lock is taken.  A result that
   fails validation is not stored, and counts as an eviction: the cache
   gave it up the way it gives up a hit that fails its digest check. *)
let insert t ~label ~source_key ~input_norm ~fingerprint ~snap ~func payload =
  let key = canonical_key ~input_norm ~fingerprint in
  match Diagnostic.errors (Legality.validate snap func) with
  | _ :: _ as errors ->
    note t ~label
      (Stats.Cache_evicted { key; reason = Diagnostic.summary errors })
  | [] ->
    let digest = payload_digest payload in
    Mutex.lock t.m;
    (* first writer wins: a concurrent domain may have compiled the same
       input; both results passed the same legality contract *)
    if not (Hashtbl.mem t.by_key key) then begin
      let entry =
        { input_norm; fingerprint; payload; digest; aliases = [ source_key ] }
      in
      Hashtbl.replace t.by_key key entry;
      Hashtbl.replace t.by_source source_key key;
      note t ~label (Stats.Cache_insert key)
    end
    else if not (Hashtbl.mem t.by_source source_key) then begin
      Hashtbl.replace t.by_source source_key key;
      match Hashtbl.find_opt t.by_key key with
      | Some entry -> entry.aliases <- source_key :: entry.aliases
      | None -> ()
    end;
    Mutex.unlock t.m
