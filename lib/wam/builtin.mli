(** In-line (escape) builtin predicates.  Builtins execute with their
    arguments in A1..An; see {!Exec.exec_builtin} for the semantics. *)

type t =
  | Is
  | Lt | Gt | Le | Ge | Arith_eq | Arith_ne
  | Unify
  | Not_unify
  | Term_eq | Term_ne | Term_lt | Term_gt | Term_le | Term_ge
  | Var_p | Nonvar_p | Atom_p | Integer_p | Atomic_p | Compound_p
  | Ground_p
  | Indep_p
  | True_b | Fail_b
  | Write_t | Print_t | Nl
  | Halt_b
  | Functor_b
  | Arg_b
  | Univ

val lookup : string -> int -> t option
val name : t -> string
