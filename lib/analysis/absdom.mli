(** Abstract substitutions over one clause's variables.

    The combined domain tracks, per variable: definite groundness,
    definite freeness (unbound {e and} unaliased), and a may-share
    relation among the remaining variables -- a Pos-style groundness
    component plus pair-sharing with freeness, in the &-Prolog
    tradition.  A variable absent from both sets is fresh, hence free
    and unaliased (the same convention as the annotator). *)

module SS : Set.S with type elt = string

type gfa = Prolog.Abspat.gfa

type t = {
  ground : SS.t;  (** definitely ground *)
  any : SS.t;  (** possibly aliased / partially instantiated *)
  share : (string * string) list;
      (** normalized may-share pairs among [any] variables (sorted) *)
}

val empty : t
(** Every variable fresh (free, unaliased). *)

val set_ground : t -> string list -> t
(** Grounding also severs all sharing through those variables. *)

val make_any : t -> string list -> t
(** Weaken to unknown (ground variables stay ground). *)

val link_all : t -> string list -> t

val unify : t -> Prolog.Term.t -> Prolog.Term.t -> t
(** Abstract effect of [A = B]. *)

val join : t -> t -> t

val project : t -> Prolog.Term.t list -> Prolog.Abspat.pattern
(** Call-site projection of goal arguments onto a positional pattern:
    groundness/freeness per position, sharing between positions
    (including [(i, i)] for internal aliasing such as a repeated
    variable in one argument). *)

val apply_success : t -> Prolog.Term.t list -> Prolog.Abspat.pattern -> t
(** Instantiate a callee success pattern back at the call site. *)

val seed_head : Prolog.Abspat.pattern -> Prolog.Term.t list -> t
(** Clause entry state implied by a call pattern over the head
    arguments. *)
