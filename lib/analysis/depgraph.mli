(** Static predicate call graph and its strongly connected
    components, used to order the fixpoint iteration bottom-up and to
    report mutual-recursion groups; and {!fixpoint}, the one
    iterate-until-stable loop of detan, refmap and bindan. *)

type key = string * int

type t

val build : Prolog.Database.t -> t
(** Edges from each predicate to the database predicates its clause
    bodies call (CGE arms included). *)

val callees : t -> key -> key list

val goal_key : Prolog.Database.t -> Prolog.Term.t -> key option
(** The database predicate a goal calls; [None] for a builtin, an
    undefined predicate, a variable or an integer. *)

val sccs : t -> key list list
(** Strongly connected components in reverse topological order
    (callees before callers); deterministic. *)

val scc_index : t -> key -> int
(** Index of a predicate's component in the {!sccs} list (-1 if the
    predicate is unknown). *)

val topo_order : t -> key list
(** The {!sccs} list flattened: every predicate exactly once, callees
    before callers, ties broken by first-definition order.  Both the
    fixpoint seeding and the costan recurrence pass iterate in this
    order, so analysis output is stable across runs. *)

val fixpoint : ?max_rounds:int -> 'k list -> ('k -> bool) -> int * bool
(** [fixpoint keys step] calls [step] on every key, in list order, pass
    after pass; [step k] recomputes [k]'s entry and reports whether it
    changed.  It stops after a pass in which no step reported a change,
    or once [max_rounds] passes are made (no cap by default).  Returns
    the passes made and whether the last one changed nothing: [(k + 1,
    true)] when the entries settle after [k] changing passes, [(m,
    false)] when the cap [m] stopped a still-moving loop. *)
