(** Term printing with operator notation and list syntax.  The output
    re-parses to the same term. *)

val pp : Format.formatter -> Term.t -> unit
val to_string : Term.t -> string

val atom_to_string : string -> string
(** Quote an atom if its spelling requires it. *)
