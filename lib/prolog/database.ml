(* Clause database and body normalization.

   Normalization removes the control constructs the WAM compiler does
   not want to see inline, by lifting them into auxiliary predicates:

     (A ; B)          aux :- A.   aux :- B.
     (C -> T ; E)     aux :- C, !, T.   aux :- E.
     (C -> T)         aux :- C, !, T.
     \+ G             aux :- G, !, fail.   aux.
     G1 & (A, B)      arm lifted into its own predicate

   Cut inside a lifted disjunct is local to the auxiliary predicate (the
   usual opaque-cut simplification, documented in README). *)

type clause = { head : Term.t; body : Cge.body }

type t = {
  preds : (string * int, clause list ref) Hashtbl.t;
  mutable order : (string * int) list; (* reverse insertion order *)
  mutable aux_count : int;
  mutable directives : Term.t list; (* reverse order *)
}

exception Load_error of string

let create () =
  { preds = Hashtbl.create 64; order = []; aux_count = 0; directives = [] }

let copy db =
  let preds = Hashtbl.copy db.preds in
  Hashtbl.filter_map_inplace (fun _ cell -> Some (ref !cell)) preds;
  { db with preds }

let key_of_head = function
  | Term.Atom name -> (name, 0)
  | Term.Struct (name, args) -> (name, List.length args)
  | Term.Int _ | Term.Var _ ->
    raise (Load_error "clause head must be an atom or structure")

let add_clause db clause =
  let key = key_of_head clause.head in
  match Hashtbl.find_opt db.preds key with
  | Some cell -> cell := !cell @ [ clause ]
  | None ->
    Hashtbl.add db.preds key (ref [ clause ]);
    db.order <- key :: db.order

let clauses db key =
  match Hashtbl.find_opt db.preds key with
  | Some cell -> !cell
  | None -> []

let has_predicate db key = Hashtbl.mem db.preds key
let predicates db = List.rev db.order
let directives db = List.rev db.directives

let fresh_aux db base =
  db.aux_count <- db.aux_count + 1;
  Printf.sprintf "$%s_%d" base db.aux_count

let head_for name vars =
  match vars with
  | [] -> Term.Atom name
  | _ :: _ -> Term.Struct (name, List.map (fun v -> Term.Var v) vars)

(* ------------------------------------------------------------------ *)
(* Lifting of control constructs.                                     *)

(* [lift_controls db t] rewrites goal positions of [t], generating aux
   clauses as a side effect, and returns a term whose goal positions
   contain only literals, ',', '&', and CGE conditionals. *)
let rec lift_controls db t =
  match t with
  | Term.Struct (",", [ a; b ]) ->
    Term.Struct (",", [ lift_controls db a; lift_controls db b ])
  | Term.Struct ("&", [ a; b ]) ->
    Term.Struct ("&", [ lift_arm db a; lift_arm db b ])
  | Term.Struct (("|" | "=>" as f), [ cond; goals ]) when Cge.has_par goals ->
    Term.Struct (f, [ cond; lift_controls db goals ])
  | Term.Struct ((";" | "->"), _) | Term.Struct ("\\+", [ _ ]) ->
    lift_goal db t
  | Term.Atom _ | Term.Int _ | Term.Var _ | Term.Struct _ -> t

(* A parallel arm must end up a single literal. *)
and lift_arm db t =
  match lift_controls db t with
  | Term.Struct ((","), _) as conj -> lift_body_to_aux db "par_arm" conj
  | lit -> lit

and lift_goal db t =
  match t with
  | Term.Struct (";", [ Term.Struct ("->", [ c; then_ ]); else_ ]) ->
    let vars = Term.vars t in
    let name = fresh_aux db "ite" in
    let head = head_for name vars in
    define db head
      (Term.conj [ lift_controls db c; Term.Atom "!"; lift_controls db then_ ]);
    define db head (lift_controls db else_);
    head
  | Term.Struct (";", [ a; b ]) ->
    let vars = Term.vars t in
    let name = fresh_aux db "or" in
    let head = head_for name vars in
    define db head (lift_controls db a);
    define db head (lift_controls db b);
    head
  | Term.Struct ("->", [ c; then_ ]) ->
    let vars = Term.vars t in
    let name = fresh_aux db "if" in
    let head = head_for name vars in
    define db head
      (Term.conj [ lift_controls db c; Term.Atom "!"; lift_controls db then_ ]);
    head
  | Term.Struct ("\\+", [ g ]) ->
    let vars = Term.vars t in
    let name = fresh_aux db "naf" in
    let head = head_for name vars in
    define db head
      (Term.conj [ lift_controls db g; Term.Atom "!"; Term.Atom "fail" ]);
    define db head (Term.Atom "true");
    head
  | Term.Atom _ | Term.Int _ | Term.Var _ | Term.Struct _ -> t

and lift_body_to_aux db base body_term =
  let vars = Term.vars body_term in
  let name = fresh_aux db base in
  let head = head_for name vars in
  define db head body_term;
  head

and define db head body_term =
  let lifted = lift_controls db body_term in
  add_clause db { head; body = Cge.items_of_term lifted }

(* ------------------------------------------------------------------ *)

let assert_term db t =
  match t with
  | Term.Struct (":-", [ head; body ]) -> define db head body
  | Term.Struct (":-", [ directive ]) ->
    db.directives <- directive :: db.directives
  | Term.Struct ("?-", [ directive ]) ->
    db.directives <- directive :: db.directives
  | Term.Atom _ | Term.Struct _ -> define db t (Term.Atom "true")
  | Term.Int _ | Term.Var _ ->
    raise (Load_error "a clause must be an atom, structure or ':-'/2")

let of_string src =
  let db = create () in
  List.iter (assert_term db) (Parser.clauses_of_string src);
  db

(* Strip every CGE: each Par item becomes its arms in textual order.
   Directives are carried over so `:- mode` declarations survive. *)
let sequentialize db =
  let out = create () in
  List.iter
    (fun key ->
      List.iter
        (fun clause ->
          let body =
            List.concat_map
              (function
                | Cge.Par { arms; _ } -> List.map (fun a -> Cge.Lit a) arms
                | Cge.Lit _ as item -> [ item ])
              clause.body
          in
          add_clause out { head = clause.head; body })
        (clauses db key))
    (predicates db);
  out.directives <- db.directives;
  out

(* Statistics used by reports and tests. *)
let clause_count db =
  Hashtbl.fold (fun _ cell n -> n + List.length !cell) db.preds 0

let predicate_count db = List.length db.order

(* Number of parallel calls (CGEs) in the database. *)
let parallel_call_count db =
  Hashtbl.fold
    (fun _ cell n ->
      n
      + List.fold_left
          (fun acc clause ->
            acc
            + List.length
                (List.filter
                   (function Cge.Par _ -> true | Cge.Lit _ -> false)
                   clause.body))
          0 !cell)
    db.preds 0
