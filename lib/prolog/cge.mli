(** Conditional Graph Expressions and the normalized clause-body form.

    A body is a sequence of items; each item is either an ordinary
    literal or a parallel call (CGE).  Source syntax accepted:
    {[
      ( ground(Y), indep(X,Z) | g(X,Y) & h(Y,Z) )   % paper's CGE form
      ( Cond => g & h )                             % DeGroot-style
      g(X,Y) & h(Y,Z)                               % unconditional
    ]} *)

type check =
  | Ground of Term.t  (** [ground(X)]: X bound to a ground term *)
  | Indep of Term.t * Term.t  (** [indep(X,Y)]: no shared variable *)
  | Size_ge of Term.t * int
      (** [size_ge(X,K)]: X's term size reaches K — the granularity
          guard; smaller goals take the sequential fallback *)

type item =
  | Lit of Term.t  (** an ordinary goal *)
  | Par of { checks : check list; arms : Term.t list }
      (** a parallel call; [checks = []] means unconditional *)

type body = item list

exception Ill_formed of string

val items_of_term : Term.t -> body
(** Translate a parsed body term into items.
    @raise Ill_formed on unsupported CGE conditions. *)

val has_par : Term.t -> bool
(** Does a parallel conjunction appear at the top of this term? *)

val pp_check : Format.formatter -> check -> unit
val pp_item : Format.formatter -> item -> unit
