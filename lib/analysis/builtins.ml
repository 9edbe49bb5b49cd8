(* Abstract transfer functions for the builtins (success-substitution
   semantics: the result describes the store *when the goal succeeds*,
   so e.g. `X < Y` may assert both arguments ground -- a call where
   they are not simply fails).

   Tests and comparisons bind nothing, so they leave the substitution
   unchanged; type tests that entail groundness strengthen it. *)

type result =
  | Applied of Prolog.Absdom.t  (* builtin; state after a successful call *)
  | Fails  (* cannot succeed: the rest of the clause is unreachable *)
  | Not_builtin

let vars = Prolog.Term.vars

let apply st name args =
  match (name, args) with
  | "=", [ a; b ] -> Applied (Prolog.Absdom.unify st a b)
  | ("fail" | "false"), [] -> Fails
  | ("true" | "!" | "nl" | "halt"), [] -> Applied st
  | "is", [ a; b ] ->
    Applied (Prolog.Absdom.set_ground st (vars a @ vars b))
  | ("<" | ">" | "=<" | ">=" | "=:=" | "=\\="), [ a; b ] ->
    Applied (Prolog.Absdom.set_ground st (vars a @ vars b))
  | ("atomic" | "atom" | "integer" | "ground"), [ a ] ->
    Applied (Prolog.Absdom.set_ground st (vars a))
  | ("var" | "nonvar" | "compound"), [ _ ] -> Applied st
  | ("\\=" | "==" | "\\==" | "@<" | "@>" | "@=<" | "@>=" | "indep"), [ _; _ ]
    ->
    Applied st
  | ("write" | "print"), [ _ ] -> Applied st
  | ("functor" | "arg"), [ _; _; _ ] | "=..", [ _; _ ] ->
    (* structure builders: conservatively alias everything they touch *)
    let vs = List.concat_map vars args in
    Applied (Prolog.Absdom.link_all (Prolog.Absdom.make_any st vs) vs)
  | _ -> Not_builtin
