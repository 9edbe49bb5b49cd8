(** Canonical forms for table keys and answers.

    The answer table is keyed by (predicate, canonicalized call term):
    two calls that are variants of each other — equal up to a
    consistent renaming of variables — must map to the same key, and
    two answers that are variants must dedupe on insert.  Both go
    through the same canonicalization: variables are renamed to
    [_G0, _G1, ...] in first-occurrence order and the result is
    printed back to text (the printer round-trips, so equal text means
    variant terms). *)

type key = private {
  spec : string;  (** ["name/arity"] of the called predicate *)
  text : string;  (** canonicalized call term, printed *)
  words : int;  (** size of the call term, for capacity accounting *)
}

val key_of_term : Prolog.Term.t -> key
(** Canonicalize a call term.  Atoms and structures key by functor;
    an integer or variable call keys under the pseudo-spec ["?/0"]
    (the machine would reject it, but the table stays total). *)

val key_of_query : string -> (key, string) result
(** Parse one query term and canonicalize it; [Error msg] on syntax
    errors. *)

type answer = (string * Prolog.Term.t) list
(** One solution: bindings of the query's variables. *)

val answer_text : answer -> string
(** Canonical text of one answer: bindings sorted by variable name,
    residual variables renamed consistently {e across} the whole
    answer (shared variables stay visibly shared). *)

val answer_words : answer -> int
(** Size of the bound terms, for capacity accounting. *)

val rename_canonical : Prolog.Term.t -> Prolog.Term.t
(** The underlying renaming: variables become [_G0, _G1, ...] in
    first-occurrence order. *)
