(** Clause database and body normalization.

    Loading rewrites control constructs into auxiliary predicates so
    the compiler only sees literals, CGEs and conjunctions:
    {ul
    {- [(A ; B)] becomes a two-clause auxiliary;}
    {- [(C -> T ; E)] / [(C -> T)] use an auxiliary with a local cut;}
    {- [\+ G] becomes the usual negation-as-failure pair;}
    {- a compound arm of ['&'] is lifted into its own predicate.}}

    Cut inside a lifted disjunct is local to the auxiliary predicate
    (the usual opaque-cut simplification). *)

type clause = { head : Term.t; body : Cge.body }

type t

exception Load_error of string

val create : unit -> t

val copy : t -> t
(** An independent database with the same clauses, predicate order,
    auxiliary-name counter and directives: asserting into the copy
    leaves the original unchanged. *)

val cut_back : t -> base:t -> bool
(** [cut_back t ~base], where [t] is a {!copy} of [base], removes every
    predicate added to [t] since, with the directives and the
    auxiliary-name counter: [t] then holds [base]'s clauses again.
    [false] when one of [base]'s predicates gained a clause in [t],
    which leaves [t] unusable.
    @raise Invalid_argument if [t] is not a copy of [base]. *)

val assert_term : t -> Term.t -> unit
(** Add one parsed clause or directive ([:- D] / [?- D]). *)

val of_string : string -> t
(** A fresh database holding every clause of the source text. *)

val add_clause : t -> clause -> unit
(** Add an already-normalized clause (used by {!Annotate}). *)

val sequentialize : t -> t
(** A copy with every CGE flattened to its arms in textual order (the
    sequential reading); directives are preserved.  Used to re-derive a
    plain program from an annotated one. *)

(** {1 Lookup} *)

val clauses : t -> string * int -> clause list
(** Clauses of a predicate, in source order ([[]] if undefined). *)

val has_predicate : t -> string * int -> bool

val predicates : t -> (string * int) list
(** All predicates, in first-definition order. *)

val directives : t -> Term.t list
(** The [:- D] directives, in source order. *)

(** {1 Statistics} *)

val clause_count : t -> int
val predicate_count : t -> int

val parallel_call_count : t -> int
(** Number of CGEs (parallel calls) in the database. *)

val fold_groups :
  ('a -> string * int -> Cge.check list -> Term.t list -> 'a) -> 'a -> t -> 'a
(** [fold_groups f acc db] folds [f acc pred checks arms] over every
    parallel group of every clause body, predicates in {!predicates}
    order and clauses in source order. *)
