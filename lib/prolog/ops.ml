(* Operator table.

   Standard Prolog operators plus the &-Prolog extensions used by
   RAP-WAM sources: '&' (parallel conjunction, binding tighter than ','
   as in &-Prolog/Ciao) and '|' / '=>' for conditional graph
   expressions.  The table is fixed, so each lookup is one match on the
   name and its results are static constants. *)

type assoc = Xfx | Xfy | Yfx
type pre_assoc = Fy | Fx

let lookup_infix = function
  | ":-" | "-->" -> Some (1200, Xfx)
  | ";" | "|" -> Some (1100, Xfy)
  | "->" | "=>" -> Some (1050, Xfy)
  | "," -> Some (1000, Xfy)
  (* Parallel conjunction: tighter than ',' so `a, b & c` groups as
     `a, (b & c)` (the &-Prolog convention). *)
  | "&" -> Some (974, Xfy)
  | "=" | "\\=" | "==" | "\\==" | "is" | "=:=" | "=\\=" | "<" | ">" | "=<"
  | ">=" | "@<" | "@>" | "@=<" | "@>=" | "=.." ->
    Some (700, Xfx)
  | "+" | "-" | "/\\" | "\\/" -> Some (500, Yfx)
  | "*" | "/" | "//" | "mod" | "rem" | ">>" | "<<" -> Some (400, Yfx)
  | "**" -> Some (200, Xfx)
  | "^" -> Some (200, Xfy)
  | _ -> None

let lookup_prefix = function
  | ":-" | "?-" -> Some (1200, Fx)
  (* declaration heads, as in ISO's dynamic/discontiguous *)
  | "mode" -> Some (1150, Fx)
  | "\\+" -> Some (900, Fy)
  | "-" | "+" | "\\" -> Some (200, Fy)
  | _ -> None

(* Argument priority on each side of an infix operator. *)
let arg_prios prio assoc =
  match assoc with
  | Xfx -> (prio - 1, prio - 1)
  | Xfy -> (prio - 1, prio)
  | Yfx -> (prio, prio - 1)
