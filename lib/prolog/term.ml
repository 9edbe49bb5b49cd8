(* Prolog source-level terms.

   Terms at this level are pure syntax: variables are identified by name
   (scoped to one clause by the parser) and lists are ordinary structures
   built from '.'/2 and the atom [].  Runtime representation (tagged
   cells) lives in Wam.Cell. *)

type t =
  | Atom of string
  | Int of int
  | Var of string
  | Struct of string * t list

let nil = Atom "[]"

let cons h t = Struct (".", [ h; t ])

(* [list_of ts] builds the Prolog list holding [ts]. *)
let list_of ts = List.fold_right cons ts nil

(* [list_with_tail ts tail] builds a partial list ending in [tail]. *)
let list_with_tail ts tail = List.fold_right cons ts tail

(* [to_list t] is the elements of a proper Prolog list, or [None]. *)
let to_list t =
  let rec go acc = function
    | Atom "[]" -> Some (List.rev acc)
    | Struct (".", [ h; tl ]) -> go (h :: acc) tl
    | Atom _ | Int _ | Var _ | Struct _ -> None
  in
  go [] t

let functor_of = function
  | Atom name -> Some (name, 0)
  | Struct (name, args) -> Some (name, List.length args)
  | Int _ | Var _ -> None

let args = function Struct (_, args) -> args | Atom _ | Int _ | Var _ -> []

(* Conjunction utilities: ','/2 right-nested. *)
let rec conjuncts = function
  | Struct (",", [ a; b ]) -> conjuncts a @ conjuncts b
  | t -> [ t ]

let conj ts =
  match List.rev ts with
  | [] -> Atom "true"
  | last :: rev_front ->
    List.fold_left (fun acc g -> Struct (",", [ g; acc ])) last rev_front

(* Parallel conjunction '&'/2, same shape as ','/2. *)
let rec par_conjuncts = function
  | Struct ("&", [ a; b ]) -> par_conjuncts a @ par_conjuncts b
  | t -> [ t ]

(* Variable names occurring in a term, in first-occurrence order. *)
let vars t =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go = function
    | Var v ->
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        acc := v :: !acc
      end
    | Atom _ | Int _ -> ()
    | Struct (_, args) -> List.iter go args
  in
  go t;
  List.rev !acc

let is_ground t = vars t = []

let rec equal a b =
  match a, b with
  | Atom x, Atom y -> String.equal x y
  | Int x, Int y -> x = y
  | Var x, Var y -> String.equal x y
  | Struct (f, xs), Struct (g, ys) ->
    String.equal f g
    && List.length xs = List.length ys
    && List.for_all2 equal xs ys
  | (Atom _ | Int _ | Var _ | Struct _), _ -> false

let rec size = function
  | Atom _ | Int _ | Var _ -> 1
  | Struct (_, args) -> List.fold_left (fun n t -> n + size t) 1 args

let rec depth = function
  | Atom _ | Int _ | Var _ -> 1
  | Struct (_, args) ->
    1 + List.fold_left (fun d t -> max d (depth t)) 0 args
