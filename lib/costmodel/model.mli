(** Target cost model — the stand-in for LLVM's TTI on Skylake/AVX2.

    Calibrated so the paper's worked examples (Figures 2-4) reproduce their
    printed group costs exactly.  Ships two tables: [skylake_avx2] is what
    the vectorizer queries (TTI), [skylake_machine] is what the execution
    simulator charges; their small documented differences reproduce the
    cost-model/performance inconsistencies of Section 5.2 structurally. *)

open Lslp_ir

type op_costs = {
  scalar : int;
  vector : int -> int;  (** cost as a function of lane count *)
}

type t = {
  target_name : string;
  vector_bits : int;
  binop_cost : Opcode.binop -> op_costs;
  unop_cost : Opcode.unop -> op_costs;
  load_cost : op_costs;
  store_cost : op_costs;
  cmp_cost : op_costs;  (** lane compare producing an i1 mask *)
  select_cost : op_costs;  (** per-lane blend on a mask *)
  masked_load_cost : op_costs;
      (** predicated load; dearer than [load_cost] on both sides *)
  masked_store_cost : op_costs;  (** predicated store *)
  insert_element : int;
  insert_element_alu : int;
      (** insertion of an ALU-produced (non-load) value; the machine table
          charges these more than TTI does *)
  extract_element : int;
  splat : int;
  shuffle : int;  (** single-source lane permutation *)
  horizontal_reduce : int -> int;
      (** cost of reducing an n-lane vector to a scalar *)
}

val skylake_avx2 : t
(** The TTI table the vectorizer consults. *)

val skylake_machine : t
(** The simulator's table; identical to TTI except ALU-value lane insertion
    costs 2 (register-domain crossing), reproducing §5.2's cost-model /
    performance inconsistencies structurally. *)

val sse_like : t
(** 128-bit target for tests/ablations. *)

val max_lanes : t -> Types.scalar -> int
(** Lanes of the widest native vector for the element type (4 for i64/f64 on
    256-bit targets). *)

val scalar_instr_cost : t -> Instr.t -> int
(** Cost of the instruction in scalar form. *)

val instr_cost : t -> Instr.t -> int
(** Cost of one executed instruction as written (vector ops charged at their
    width) — the simulator's per-instruction charge. *)

val vector_group_cost : t -> Instr.t -> lanes:int -> int
(** Cost of the [lanes]-wide vector instruction replacing a group whose
    members look like the given scalar instruction. *)

type gather_kind = Gather_free | Gather_splat | Gather_insert

val classify_gather : Instr.value array -> gather_kind
(** Free for all-constant vectors, splat when every lane is the same value,
    per-lane insertion otherwise. *)

val gather_cost_lanes : t -> Instr.value array -> int
(** Cost of assembling a column of lane values into a vector, by the
    {!classify_gather} kind: free, one splat, or one insert per lane. *)

val gather_cost : t -> Instr.value list -> int
(** {!gather_cost_lanes} of a list. *)
