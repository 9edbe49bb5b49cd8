(* In-line (escape) builtin predicates.

   Builtins execute with their arguments in A1..An.  Arithmetic
   comparisons and [is] evaluate heap terms; [Ground] and [Indep] are
   also available as goals (besides their compiled CGE-check forms). *)

type t =
  | Is (* is/2 *)
  | Lt | Gt | Le | Ge | Arith_eq | Arith_ne
  | Unify (* =/2 *)
  | Not_unify (* \=/2 *)
  | Term_eq (* ==/2 *)
  | Term_ne (* \==/2 *)
  | Term_lt | Term_gt | Term_le | Term_ge (* @</2 etc. *)
  | Var_p | Nonvar_p | Atom_p | Integer_p | Atomic_p | Compound_p
  | Ground_p (* ground/1 *)
  | Indep_p (* indep/2 *)
  | True_b | Fail_b
  | Write_t | Print_t | Nl
  | Halt_b
  | Functor_b (* functor/3 *)
  | Arg_b (* arg/3 *)
  | Univ (* =../2 *)

let table =
  [
    (("is", 2), Is);
    (("<", 2), Lt);
    ((">", 2), Gt);
    (("=<", 2), Le);
    ((">=", 2), Ge);
    (("=:=", 2), Arith_eq);
    (("=\\=", 2), Arith_ne);
    (("=", 2), Unify);
    (("\\=", 2), Not_unify);
    (("==", 2), Term_eq);
    (("\\==", 2), Term_ne);
    (("@<", 2), Term_lt);
    (("@>", 2), Term_gt);
    (("@=<", 2), Term_le);
    (("@>=", 2), Term_ge);
    (("var", 1), Var_p);
    (("nonvar", 1), Nonvar_p);
    (("atom", 1), Atom_p);
    (("integer", 1), Integer_p);
    (("atomic", 1), Atomic_p);
    (("compound", 1), Compound_p);
    (("ground", 1), Ground_p);
    (("indep", 2), Indep_p);
    (("true", 0), True_b);
    (("fail", 0), Fail_b);
    (("false", 0), Fail_b);
    (("write", 1), Write_t);
    (("print", 1), Print_t);
    (("nl", 0), Nl);
    (("halt", 0), Halt_b);
    (("functor", 3), Functor_b);
    (("arg", 3), Arg_b);
    (("=..", 2), Univ);
  ]

let lookup name arity = List.assoc_opt (name, arity) table

let name t =
  let rec find = function
    | [] -> "?"
    | ((n, a), b) :: rest -> if b = t then Printf.sprintf "%s/%d" n a else find rest
  in
  find table
