(** The rule registry and the parsetree walk that applies it.

    Rules are purely syntactic: the sources are parsed with the compiler's
    own parser ([compiler-libs]), never typed, so the linter runs on any
    tree state and costs milliseconds.  The flip side — patterns a rule
    cannot see through (a mutable value returned by a helper, an exception
    aliased before raising) — is accepted and documented in DESIGN.md §13;
    the committed waiver file handles the sites that are safe on purpose.

    v1 registry:
    - R1 [global-mutable-state]: a module-level [let] whose right-hand
      side creates mutable state ([ref], [Hashtbl.create], [Queue.create],
      [Stack.create], [Buffer.create], [Weak.create]) outside any
      function body — shared by every domain of a Domain-pool compile
      service, i.e. a data race.  [Atomic.make] and [Lslp_util.Id_gen]
      are deliberately not flagged: they are the sanctioned fixes.
    - R2 [ambient-random]: use of the ambient [Random.*] generator
      (including [Random.self_init]) instead of an explicit
      [Random.State.t] — nondeterministic and domain-racy.
    - R3 [raise-primitives]: [failwith], [invalid_arg], or a bare [raise]
      of a predefined exception ([Failure], [Invalid_argument],
      [Not_found], [Exit], ...) — the fail-soft pipeline's guarantees
      rest on typed errors; subsumes the old grep-based
      [make lint-exceptions].
    - R4 [wall-clock]: [Unix.gettimeofday]/[Unix.time]/[Sys.time] — no
      [lib/] module reads the clock; the one waived site is the lint
      bench in [bin/lint.ml].
    - R5 [boxed-table-hot-path]: [Hashtbl.create] or [List.assoc]-family
      lookups inside the per-instruction hot-path modules ([lib/core],
      [lib/ir]) — the arena refactor serves those queries from int
      arrays ({!Lslp_ir.Arena}, [Int_table], [Key_table]); cold sites
      (reporting, per-run string-keyed registries, the tiny affine term
      lists) are waived with justifications. *)

type rule = {
  id : string;    (** ["R1"] *)
  slug : string;  (** ["global-mutable-state"] *)
  doc : string;   (** one-line description, shown by [lslp-lint --rules] *)
}

val all : rule list

val find : string -> rule option
(** Look up by id ([R1]) or slug ([global-mutable-state]). *)

val check : file:string -> Parsetree.structure -> Finding.t list
(** Apply every rule to one parsed implementation.  [file] is the
    normalized path recorded in each finding.  Sorted by location. *)
