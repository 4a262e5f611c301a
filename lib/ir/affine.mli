(** Affine index expressions [c0 + c1*s1 + ... + cn*sn] over named symbols.

    The normal form used by the SCEV-lite address analysis: array subscripts
    are kept symbolically so that "are these two accesses adjacent?" reduces
    to differencing two affine forms.  Values are in *element* units, not
    bytes. *)

type t

val zero : t
val const : int -> t

val sym : ?coeff:int -> string -> t
(** [sym s] is the symbol [s]; [sym ~coeff:k s] is [k*s]. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : int -> t -> t
val add_const : int -> t -> t

val mul : t -> t -> t option
(** Product, defined only when at least one side is constant ([None]
    otherwise — the result would not be affine). *)

val is_const : t -> bool
val to_const : t -> int option

val equal : t -> t -> bool
val compare : t -> t -> int

val diff_const : t -> t -> int option
(** [diff_const a b = Some k] iff [a - b = k] for every assignment of the
    symbols, i.e. the symbolic parts agree.  This is the consecutive-access
    oracle. *)

val symbols : t -> string list

val subst : string -> t -> t -> t
(** [subst s repl a] substitutes the affine form [repl] for every occurrence
    of the symbol [s] in [a].  This is the algebra behind loop unrolling:
    the counter [i] becomes [i + k*step] in shifted body copies, or a
    constant in the fully-unrolled epilogue. *)

val eval : env:(string -> int) -> t -> int
(** Evaluate under an assignment of the symbols. *)

val bprint : Buffer.t -> t -> unit
(** Appends the text form ([i + 2], [-3*j - 1], [4]); [to_string] wraps
    it. *)

val to_string : t -> string

val terms : t -> (string * int) list
(** The symbolic part, sorted by symbol with nonzero coefficients — the
    normal-form shape an arena interns so that address differencing
    becomes an int comparison. *)

val const_part : t -> int
(** The constant part [c0]. *)
