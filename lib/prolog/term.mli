(** Prolog source-level terms.

    Terms at this level are pure syntax: variables are identified by
    name (scoped to one clause by the parser) and lists are ordinary
    structures built from ['.'/2] and the atom [[]].  The runtime
    representation (tagged cells) lives in {!Wam.Cell}. *)

type t =
  | Atom of string  (** an atom, e.g. [foo] *)
  | Int of int  (** an integer *)
  | Var of string  (** a variable, by source name *)
  | Struct of string * t list  (** a compound term [f(args)] *)

(** {1 List syntax} *)

val nil : t
(** The empty list atom [[]]. *)

val cons : t -> t -> t
(** [cons h t] is the list cell ['.'(h, t)]. *)

val list_of : t list -> t
(** [list_of ts] builds the proper Prolog list holding [ts]. *)

val list_with_tail : t list -> t -> t
(** [list_with_tail ts tail] builds a partial list ending in [tail]. *)

val to_list : t -> t list option
(** [to_list t] is the elements of a proper Prolog list, or [None] if
    [t] is not one. *)

(** {1 Inspection} *)

val functor_of : t -> (string * int) option
(** [functor_of t] is the principal functor [(name, arity)] of an atom
    or structure, [None] for variables and integers. *)

val vars : t -> string list
(** Variable names occurring in a term, in first-occurrence order. *)

val is_ground : t -> bool
(** No variables anywhere. *)

val equal : t -> t -> bool
(** Structural equality (variables compare by name). *)

val size : t -> int
(** Number of atom/int/var/structure nodes. *)

val depth : t -> int
(** Height of the term tree (atomic terms have depth 1). *)

(** {1 Conjunctions} *)

val conjuncts : t -> t list
(** Flatten a [','/2] tree into its conjuncts. *)

val conj : t list -> t
(** Rebuild a right-nested [','/2] conjunction ([true] for []). *)

val par_conjuncts : t -> t list
(** Flatten a ['&'/2] (parallel conjunction) tree. *)
