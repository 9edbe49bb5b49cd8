(* Conditional Graph Expressions and the normalized clause-body form.

   A body is a sequence of items; each item is either an ordinary
   literal or a parallel call.  A parallel call carries its
   independence/groundness checks ([True] when annotated
   unconditionally with '&') and its arm goals, each of which is a
   single literal after normalization (Database lifts conjunction arms
   into auxiliary predicates).

   Source syntax accepted:
     ( ground(Y), indep(X,Z) | g(X,Y) & h(Y,Z) )   -- paper's CGE form
     ( Cond => g & h )                             -- DeGroot-style arrow
     g(X,Y) & h(Y,Z)                               -- unconditional  *)

type check =
  | Ground of Term.t
  | Indep of Term.t * Term.t
  | Size_ge of Term.t * int
      (* granularity guard: parallelize only when the term's size
         reaches the bound (spawn overhead not worth smaller goals) *)

type item =
  | Lit of Term.t
  | Par of { checks : check list; arms : Term.t list }

type body = item list

exception Ill_formed of string

let rec checks_of_term t =
  match t with
  | Term.Atom "true" -> []
  | Term.Struct (",", [ a; b ]) -> checks_of_term a @ checks_of_term b
  | Term.Struct ("ground", [ x ]) -> [ Ground x ]
  | Term.Struct ("indep", [ x; y ]) -> [ Indep (x, y) ]
  | Term.Struct ("size_ge", [ x; Term.Int k ]) -> [ Size_ge (x, k) ]
  | Term.Atom _ | Term.Int _ | Term.Var _ | Term.Struct _ ->
    raise
      (Ill_formed
         (Printf.sprintf "unsupported CGE check: %s" (Pretty.to_string t)))

(* Does a parallel conjunction appear at the top of this control term? *)
let rec has_par = function
  | Term.Struct ("&", [ _; _ ]) -> true
  | Term.Struct (",", [ a; b ]) -> has_par a || has_par b
  | Term.Atom _ | Term.Int _ | Term.Var _ | Term.Struct _ -> false

(* Translate a parsed body term into items.  Arms of '&' are kept as raw
   terms here; Database.normalize lifts compound arms afterwards. *)
let rec items_of_term t =
  match t with
  | Term.Atom "true" -> []
  | Term.Struct (",", [ a; b ]) -> items_of_term a @ items_of_term b
  | Term.Struct ("&", [ _; _ ]) ->
    [ Par { checks = []; arms = Term.par_conjuncts t } ]
  | Term.Struct (("|" | "=>"), [ cond; goals ]) when has_par goals ->
    let checks = checks_of_term cond in
    [ Par { checks; arms = Term.par_conjuncts goals } ]
  | Term.Atom _ | Term.Int _ | Term.Var _ | Term.Struct _ -> [ Lit t ]

(* Variables mentioned by an item, for permanent-variable analysis. *)
let item_vars = function
  | Lit g -> Term.vars g
  | Par { checks; arms } ->
    let check_term = function
      | Ground x -> [ x ]
      | Indep (x, y) -> [ x; y ]
      | Size_ge (x, _) -> [ x ]
    in
    let terms = List.concat_map check_term checks @ arms in
    List.concat_map Term.vars terms

let pp_check fmt = function
  | Ground x -> Format.fprintf fmt "ground(%a)" Pretty.pp x
  | Indep (x, y) ->
    Format.fprintf fmt "indep(%a,%a)" Pretty.pp x
      Pretty.pp y
  | Size_ge (x, k) ->
    Format.fprintf fmt "size_ge(%a,%d)" Pretty.pp x k

let pp_item fmt = function
  | Lit g -> Pretty.pp fmt g
  | Par { checks; arms } ->
    Format.fprintf fmt "(%a | %a)"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         pp_check)
      checks
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " & ")
         Pretty.pp)
      arms
