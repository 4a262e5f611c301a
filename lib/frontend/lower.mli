(** Lowering from the kernel AST to straight-line IR.

    Performs type checking, enforces single-assignment locals, and extracts
    affine subscripts (array indices must be affine in the kernel's i64
    parameters; affine i64 locals are substituted symbolically). *)

open Lslp_ir

exception Error of string * Token.pos

val lower_kernel : Ast.kernel -> Func.t
(** @raise Error on type or affinity violations.  The result is verified. *)

val compile_string : string -> Func.t
(** Parse + lower one kernel. *)
