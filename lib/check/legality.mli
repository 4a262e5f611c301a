(** Post-vectorization legality validation.

    Take a {!snapshot} of a function before the pass mutates it, run the
    pass, then {!validate} the transformed function against the snapshot:

    - every recorded vector instruction's lanes must be mutually independent
      scalar instructions of the original dependence graph (data + memory
      dependences via {!Lslp_analysis.Addr} aliasing);
    - bundle typing must be uniform: one scalar element kind and opclass per
      bundle, lane count matching the emitted vector type;
    - the transformed block order must be a linearization of the original
      dependence graph, vector instructions inheriting the constraints of
      the lanes they fuse;
    - the structural {!Lslp_ir.Verifier} must still accept the function.

    Findings come back as {!Diagnostic.t} values — never exceptions. *)

open Lslp_ir

type snapshot
(** Dependence graph and instruction set of the pre-transformation block.
    The snapshot is immutable: later in-place mutation of the function does
    not disturb it. *)

val snapshot : Func.t -> snapshot
(** Also keeps the function's id source ([f.ids]): a snapshot only proves
    things about the function it was taken of. *)

type lane_provenance = {
  lanes : Instr.t array;  (** original scalar instruction per lane *)
  vector : Instr.t;  (** the wide instruction emitted for the bundle *)
}
(** Records which scalar instructions a vector instruction's lanes came
    from.  Produced by [Codegen.run ~record] and threaded through the
    pipeline report. *)

val validate :
  ?provenance:lane_provenance list -> snapshot -> Func.t -> Diagnostic.t list
(** All legality violations of the transformed function w.r.t. the
    snapshot; [[]] means the transformation is provably order-, type- and
    dependence-preserving.  Provenance entries whose lanes are not part of
    the snapshot (instructions created by an earlier region of the same
    pass) are skipped rather than guessed at.  A function whose id source
    is not the snapshot's gets one ["snapshot"] error and nothing else: its
    ids would alias the snapshot's. *)
