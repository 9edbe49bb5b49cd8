(** Abstract substitutions over one clause's variables.

    The combined domain tracks, per variable: definite groundness,
    definite freeness (unbound {e and} unaliased), and a may-share
    relation among the remaining variables -- a Pos-style groundness
    component plus pair-sharing with freeness, in the &-Prolog
    tradition.  A variable absent from both sets is fresh, hence free
    and unaliased.

    One domain serves both halves of the CGE generation: the global
    fixpoint ([lib/analysis]) and the annotator ({!Annotate}), which
    is why it lives here, next to {!Abspat}. *)

type t

val empty : t
(** Every variable fresh (free, unaliased). *)

val gfa_of : t -> string -> Abspat.gfa

val may_share : t -> string -> string -> bool
(** The two variables may be bound to terms that share a variable
    (every variable shares with itself). *)

val set_ground : t -> string list -> t
(** Grounding also severs all sharing through those variables. *)

val make_any : t -> string list -> t
(** Weaken to unknown (ground variables stay ground). *)

val set_free : t -> string -> t
(** Strengthen to free and unaliased, severing its sharing (a ground
    variable stays ground). *)

val link_all : t -> string list -> t
(** Any two of the variables may now share. *)

val unify : t -> Term.t -> Term.t -> t
(** Abstract effect of [A = B]. *)

val join : t -> t -> t

val project : t -> Term.t list -> Abspat.pattern
(** Call-site projection of goal arguments onto a positional pattern:
    groundness/freeness per position, sharing between positions
    (including [(i, i)] for internal aliasing such as a repeated
    variable in one argument). *)

val apply_success : t -> Term.t list -> Abspat.pattern -> t
(** Instantiate a callee success pattern back at the call site. *)

val repeated : Term.t list -> string list
(** The variables that occur in more than one of the arguments. *)

val seed_head : Abspat.pattern -> Term.t list -> t
(** Clause entry state implied by a call pattern over the head
    arguments.  A variable of {!repeated} is unknown: the call may
    pass terms that share in its positions. *)
