(** Tokenizer for Prolog source text.

    Handles unquoted/quoted atoms, symbolic atoms, variables, integers,
    punctuation, ['%'] line comments and block comments.  A ['('] that
    immediately follows an atom is distinguished as {!Functor_paren} so
    the parser can tell application [f(X)] from grouping [f (X)].

    The scanner works by index: it allocates no option per character
    and no closure per token, punctuation tokens are constants, and
    integer literals are accumulated in place. *)

type token =
  | Atom of string
  | Var of string
  | Int of int
  | Punct of string  (** [( ) [ ] { } , |] and end-of-clause [.] *)
  | Functor_paren of string  (** name immediately followed by ['('] *)
  | Eof

exception Error of string * int
(** Lexical error: message and byte position.  {!Parser.Error} is this
    exception, so the parser's callers see one exception for every
    malformed text.  An integer literal past [max_int] is one ("integer
    literal out of range", at its first digit). *)

type t
(** Lexer state over one source string. *)

val make : string -> t

val next : t -> token
(** Consume and return the next token ({!Eof} at the end). *)

val peek : t -> token
(** Look at the next token without consuming it. *)

val position : t -> int
(** Current byte offset, for error reporting. *)

(** {1 Character classes} (exposed for the printer) *)

val is_lower : char -> bool
val is_alnum : char -> bool
val is_symbol_char : char -> bool
