(** Lexer for the kernel language: a cursor over the source that holds one
    token at a time. *)

exception Error of string * Token.pos

type t
(** A cursor.  It always holds a current token; after the last one it holds
    [EOF] for good. *)

val create : string -> t
(** A cursor on the first token of the source.
    @raise Error when that token is malformed. *)

val current : t -> Token.t

val token_pos : t -> Token.pos
(** Where the current token starts (a fresh record per call). *)

val advance : t -> unit
(** Move to the next token.
    @raise Error on malformed input, with the offending position. *)

val drain : t -> unit
(** Advance to [EOF], so a lexical error anywhere after the cursor is
    raised. *)

val tokenize : string -> Token.spanned list
(** Full token stream, ending with [EOF].
    @raise Error on malformed input, with the offending position. *)
