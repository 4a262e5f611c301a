(* The domain-safety rules, applied as one pass over the parsetree.

   R1 walks the structure itself so it knows what is module-level: a
   [ref] under a [fun] is per-call state and fine, the same [ref] bound
   at the top of a module is shared by every domain.  R2-R4 are pure
   expression patterns, applied everywhere via [Ast_iterator]. *)

open Parsetree

type rule = { id : string; slug : string; doc : string }

let r1 =
  {
    id = "R1";
    slug = "global-mutable-state";
    doc =
      "module-level let creating mutable state (ref, Hashtbl.create, ...) \
       shared across domains";
  }

let r2 =
  {
    id = "R2";
    slug = "ambient-random";
    doc =
      "ambient Random.* call (incl. self_init) instead of an explicit \
       Random.State.t";
  }

let r3 =
  {
    id = "R3";
    slug = "raise-primitives";
    doc =
      "failwith / invalid_arg / bare raise of a predefined exception \
       instead of a typed error";
  }

let r4 =
  {
    id = "R4";
    slug = "wall-clock";
    doc =
      "wall-clock read (Unix.gettimeofday, Unix.time, Sys.time) outside \
       a waived site";
  }

let r5 =
  {
    id = "R5";
    slug = "boxed-table-hot-path";
    doc =
      "Hashtbl.create / Hashtbl.Make / List.assoc* in a hot-path module \
       (lib/core, lib/ir, lib/frontend, lib/analysis, the probe); index \
       through Arena, Int_table or Key_table instead";
  }

let all = [ r1; r2; r3; r4; r5 ]

let find key =
  List.find_opt (fun r -> r.id = key || r.slug = key) all

(* ---- longident helpers -------------------------------------------- *)

(* "Stdlib.Hashtbl.create" and "Hashtbl.create" are the same primitive. *)
let path_of_lid lid =
  match Longident.flatten lid with
  | "Stdlib" :: (_ :: _ as rest) -> String.concat "." rest
  | parts -> String.concat "." parts

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ---- R1: module-level mutable state ------------------------------- *)

(* Creation primitives whose result is mutable.  [Atomic.make] is absent
   on purpose: Atomic (and Id_gen on top of it) is the sanctioned way to
   keep a global counter. *)
let creations =
  [
    ("ref", "a ref cell");
    ("Hashtbl.create", "a hash table");
    ("Queue.create", "a queue");
    ("Stack.create", "a stack");
    ("Buffer.create", "a buffer");
    ("Weak.create", "a weak array");
  ]

let creation_of expr =
  match expr.pexp_desc with
  | Pexp_ident { txt; _ } -> List.assoc_opt (path_of_lid txt) creations
  | _ -> None

let binding_name vb =
  let rec of_pat p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) | Ppat_alias (p, _) -> of_pat p
    | _ -> None
  in
  match of_pat vb.pvb_pat with Some n -> n | None -> "_"

(* Scan the right-hand side of a module-level binding for mutable-state
   creation in escaping position: descend through everything that is
   evaluated once at module init (lets, sequences, tuples, records,
   constructor/function arguments) but never into [fun]/[function]/[lazy]
   bodies, which allocate per call. *)
let rec scan_global ~file ~name e acc =
  let scan = scan_global ~file ~name in
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> acc
  | Pexp_apply (fn, args) ->
    let acc =
      match creation_of fn with
      | Some what ->
        Finding.v ~rule:r1.id ~slug:r1.slug ~file ~loc:e.pexp_loc
          ~ident:name
          (Fmt.str
             "module-level value `%s` creates %s shared by every domain; \
              make it per-run state, or use Atomic/Id_gen and waive it"
             name what)
        :: acc
      | None -> acc
    in
    List.fold_left (fun acc (_, a) -> scan a acc) acc args
  | Pexp_let (_, vbs, body) ->
    scan body (List.fold_left (fun acc vb -> scan vb.pvb_expr acc) acc vbs)
  | Pexp_sequence (a, b) -> scan b (scan a acc)
  | Pexp_ifthenelse (c, t, e_opt) ->
    let acc = scan t (scan c acc) in
    (match e_opt with Some e -> scan e acc | None -> acc)
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _)
  | Pexp_open (_, e) | Pexp_letmodule (_, _, e) | Pexp_newtype (_, e) ->
    scan e acc
  | Pexp_tuple es | Pexp_array es ->
    List.fold_left (fun acc e -> scan e acc) acc es
  | Pexp_record (fields, base) ->
    let acc = List.fold_left (fun acc (_, e) -> scan e acc) acc fields in
    (match base with Some e -> scan e acc | None -> acc)
  | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) -> scan e acc
  | Pexp_match (e, cases) | Pexp_try (e, cases) ->
    List.fold_left
      (fun acc c -> scan c.pc_rhs acc)
      (scan e acc) cases
  | _ -> acc

let rec r1_structure ~file items acc =
  List.fold_left (r1_structure_item ~file) acc items

and r1_structure_item ~file acc item =
  match item.pstr_desc with
  | Pstr_value (_, vbs) ->
    List.fold_left
      (fun acc vb ->
        scan_global ~file ~name:(binding_name vb) vb.pvb_expr acc)
      acc vbs
  | Pstr_module mb -> r1_module_expr ~file mb.pmb_expr acc
  | Pstr_recmodule mbs ->
    List.fold_left
      (fun acc mb -> r1_module_expr ~file mb.pmb_expr acc)
      acc mbs
  | Pstr_include { pincl_mod; _ } -> r1_module_expr ~file pincl_mod acc
  | _ -> acc

and r1_module_expr ~file me acc =
  match me.pmod_desc with
  | Pmod_structure items -> r1_structure ~file items acc
  | Pmod_constraint (me, _) -> r1_module_expr ~file me acc
  | Pmod_functor (_, me) ->
    (* a functor body becomes module-level state at every application
       site, so scan it like a structure *)
    r1_module_expr ~file me acc
  | _ -> acc

(* ---- R2/R3/R4: expression patterns -------------------------------- *)

let wall_clock =
  [ "Unix.gettimeofday"; "Unix.time"; "Unix.times"; "Sys.time" ]

(* R5 applies only inside the modules on the per-instruction hot path,
   where the arena refactor replaced boxed id-keyed tables with int
   arrays, the dependence graph and the per-span probe, and the frontend,
   which runs per token and per AST node; elsewhere a Hashtbl is fine.
   Matching is on the normalized path the linter records. *)
let hot_path_dirs =
  [ "lib/core/"; "lib/ir/"; "lib/frontend/"; "lib/analysis/";
    "lib/telemetry/probe.ml" ]

let in_hot_path file =
  List.exists (fun d -> starts_with ~prefix:d file) hot_path_dirs

let boxed_tables =
  [
    ("Hashtbl.create", "allocates a polymorphic hash table");
    ("List.assoc", "scans an assoc list per lookup");
    ("List.assoc_opt", "scans an assoc list per lookup");
    ("List.mem_assoc", "scans an assoc list per lookup");
    ("List.remove_assoc", "rebuilds an assoc list per removal");
    (* [Hashtbl.Make (K)] ... [H.create] never names [Hashtbl.create], so
       the functor application itself is matched *)
    ("Hashtbl.Make", "builds a hash table module");
    ("Hashtbl.MakeSeeded", "builds a hash table module");
  ]

let boxed_table ~file ~loc p acc =
  match if in_hot_path file then List.assoc_opt p boxed_tables else None with
  | Some what ->
    Finding.v ~rule:r5.id ~slug:r5.slug ~file ~loc ~ident:p
      (Fmt.str
         "%s %s on the hot path; index through Arena, Int_table or \
          Key_table, or waive a cold site"
         p what)
    :: acc
  | None -> acc

(* Predefined exceptions a bare [raise] must not throw: they carry no
   typed payload the fail-soft pipeline can dispatch on. *)
let untyped_exceptions =
  [ "Failure"; "Invalid_argument"; "Not_found"; "Exit"; "Match_failure" ]

let expr_findings ~file e acc =
  let add rule ~loc ~ident message =
    Finding.v ~rule:rule.id ~slug:rule.slug ~file ~loc ~ident message :: acc
  in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    let p = path_of_lid txt in
    if p = "failwith" then
      add r3 ~loc:e.pexp_loc ~ident:p
        "failwith raises untyped Failure; raise a typed error instead"
    else if p = "invalid_arg" then
      add r3 ~loc:e.pexp_loc ~ident:p
        "invalid_arg raises untyped Invalid_argument; raise a typed error \
         or waive the precondition site"
    else if
      starts_with ~prefix:"Random." p
      && not (starts_with ~prefix:"Random.State." p)
    then
      add r2 ~loc:e.pexp_loc ~ident:p
        (Fmt.str
           "%s uses the ambient generator; thread an explicit \
            Random.State.t instead"
           p)
    else if List.exists (String.equal p) wall_clock then
      add r4 ~loc:e.pexp_loc ~ident:p
        (Fmt.str
           "%s reads the wall clock; only a waived site may be \
            nondeterministic"
           p)
    else boxed_table ~file ~loc:e.pexp_loc p acc)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, arg) :: _)
    when path_of_lid txt = "raise" || path_of_lid txt = "raise_notrace"
    -> (
    match arg.pexp_desc with
    | Pexp_construct ({ txt = exn; _ }, _) ->
      let c = path_of_lid exn in
      if List.exists (String.equal c) untyped_exceptions then
        add r3 ~loc:arg.pexp_loc ~ident:c
          (Fmt.str
             "bare raise of predefined %s; raise a typed error instead" c)
      else acc
    | _ -> acc)
  | _ -> acc

let check ~file structure =
  let acc = ref (r1_structure ~file structure []) in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          acc := expr_findings ~file e !acc;
          Ast_iterator.default_iterator.expr it e);
      module_expr =
        (fun it me ->
          (match me.pmod_desc with
           | Pmod_apply ({ pmod_desc = Pmod_ident { txt; _ }; _ }, _) ->
             acc := boxed_table ~file ~loc:me.pmod_loc (path_of_lid txt) !acc
           | _ -> ());
          Ast_iterator.default_iterator.module_expr it me);
    }
  in
  iter.structure iter structure;
  List.sort_uniq Finding.compare !acc
