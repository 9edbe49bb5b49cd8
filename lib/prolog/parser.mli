(** Operator-precedence (Pratt) parser for Prolog terms and clauses. *)

exception Error of string * int
(** Syntax error: message and byte position. *)

val term_of_string : string -> Term.t
(** Parse one term (an optional terminating ['.'] is allowed).
    Anonymous ['_'] variables receive fresh names scoped to the call.
    @raise Error on syntax errors. *)

val clauses_of_string : string -> Term.t list
(** Parse every ['.']-terminated clause in the source text. *)
