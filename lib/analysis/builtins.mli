(** Abstract transfer functions for builtin goals. *)

type result =
  | Applied of Prolog.Absdom.t  (** a builtin; state after a successful call *)
  | Fails  (** cannot succeed ([fail]/[false]) *)
  | Not_builtin

val apply : Prolog.Absdom.t -> string -> Prolog.Term.t list -> result
(** [apply st name args] is the success-substitution effect of the
    goal [name(args)] on [st] when it is a recognized builtin. *)
