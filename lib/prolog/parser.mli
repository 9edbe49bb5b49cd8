(** Operator-precedence (Pratt) parser for Prolog terms and clauses.

    Every malformed text raises {!Error}, lexical errors included: an
    unexpected character, an unterminated quoted atom, escape or block
    comment, and an integer literal past [max_int] ("integer literal
    out of range", at the literal). *)

exception Error of string * int
(** Syntax error: message and byte position.  It is {!Lexer.Error}
    itself, so a handler for either catches both. *)

val term_of_string : string -> Term.t
(** Parse one term (an optional terminating ['.'] is allowed).
    Anonymous ['_'] variables receive fresh names [_G1, _G2, ...]
    scoped to the call, skipping any name a named variable of the term
    spells, so an anonymous variable never aliases a named one.
    @raise Error on any malformed text. *)

val clauses_of_string : string -> Term.t list
(** Parse every ['.']-terminated clause in the source text.  The
    anonymous-variable counter runs across the file; each clause's
    names skip that clause's named variables.
    @raise Error on any malformed text. *)
