(** Interning of atoms and functors.

    Atom ids index the atom-name table; a functor id uniquely encodes a
    (name, arity) pair.  Predicates are identified by the functor id of
    their head. *)

type t

val create : unit -> t
(** A table holding only {!nil}. *)

val nil : int
(** The atom id of [[]]: 0 in every table. *)

val copy : t -> t
(** An independent table with the same ids: interning into the copy
    leaves the original unchanged. *)

val cut_back : t -> base:t -> unit
(** [cut_back t ~base], where [t] is a {!copy} of [base], forgets
    every atom and functor interned into [t] since: [t] then gives
    the ids and names [base] gives. *)

val atom : t -> string -> int
(** Intern (or look up) an atom. *)

val atom_name : t -> int -> string

val functor_ : t -> string -> int -> int
(** Intern (or look up) a functor by name and arity. *)

val functor_def : t -> int -> int * int
(** [(atom id, arity)] of a functor. *)

val functor_name : t -> int -> string
val functor_arity : t -> int -> int

val spec_string : t -> int -> string
(** ["name/arity"]. *)
