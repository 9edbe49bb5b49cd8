(** Canonical forms for table keys and answers.

    The answer table is keyed by (predicate, canonicalized call term):
    two calls that are variants of each other — equal up to a
    consistent renaming of variables — must map to the same key, and
    two answers that are variants must dedupe on insert.

    A key is a byte code written in one pass over the parsed call: a
    tag byte per node, variables numbered in first-occurrence order,
    length-prefixed names, the arity of each structure and zigzag
    varint integers.  The code is self-delimiting, so two calls get
    equal codes exactly when they are variants (sharing included:
    [f(X, X)] and [f(X, Y)] differ).  Nothing on the way to a key
    prints; printing is for snapshots only ({!text}).

    An answer is canonicalized by renaming its variables to
    [_G0, _G1, ...] in first-occurrence order and printing it. *)

type key = private {
  spec : string;  (** ["name/arity"] of the called predicate *)
  code : string;  (** the canonical call, as a byte code *)
  words : int;  (** size of the call term, for capacity accounting *)
}

val key_of_term : Prolog.Term.t -> key
(** Canonicalize a call term.  Atoms and structures key by functor;
    an integer or variable call keys under the pseudo-spec ["?/0"]
    (the machine would reject it, but the table stays total). *)

val key_of_query : string -> (key, string) result
(** Parse one query term and canonicalize it; [Error msg] on any
    malformed text (a syntax or lexical error). *)

val text : key -> string
(** The key's call printed with its variables named [_G0, _G1, ...]
    in first-occurrence order: the key line of a snapshot.
    [key_of_query (text k)] is [k] again. *)

type answer = (string * Prolog.Term.t) list
(** One solution: bindings of the query's variables. *)

val answer_text : answer -> string
(** Canonical text of one answer: bindings sorted by variable name,
    residual variables renamed consistently {e across} the whole
    answer (shared variables stay visibly shared). *)

val answer_words : answer -> int
(** Size of the bound terms, for capacity accounting. *)
