(* Canonical forms for table keys and answers: rename variables to
   _G0, _G1, ... in first-occurrence order and print.  The printer
   round-trips under the fixed operator table, so textual equality
   is variant equality. *)

open Prolog

type key = { spec : string; text : string; words : int }
type answer = (string * Term.t) list

(* One renaming environment shared across a whole term (or answer):
   the table maps source variable names to canonical ones. *)
let renamer () =
  let tbl = Hashtbl.create 16 in
  let next = ref 0 in
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some canon -> canon
    | None ->
      let canon = Printf.sprintf "_G%d" !next in
      incr next;
      Hashtbl.add tbl name canon;
      canon

let rec rename_with rn (t : Term.t) : Term.t =
  match t with
  | Term.Atom _ | Term.Int _ -> t
  | Term.Var v -> Term.Var (rn v)
  | Term.Struct (f, args) -> Term.Struct (f, List.map (rename_with rn) args)

let rename_canonical t = rename_with (renamer ()) t

let key_of_term t =
  let spec =
    match Term.functor_of t with
    | Some (name, arity) -> Printf.sprintf "%s/%d" name arity
    | None -> "?/0"
  in
  let canon = rename_canonical t in
  { spec; text = Pretty.to_string canon; words = Term.size t }

let key_of_query q =
  match Parser.term_of_string q with
  | t -> Ok (key_of_term t)
  | exception Parser.Error (msg, pos) ->
    Error (Printf.sprintf "syntax error at %d: %s" pos msg)

let answer_text (a : answer) =
  let a = List.sort (fun (x, _) (y, _) -> compare x y) a in
  (* one renamer across all bindings: sharing between them survives *)
  let rn = renamer () in
  String.concat ", "
    (List.map
       (fun (v, t) ->
         Printf.sprintf "%s = %s" v (Pretty.to_string (rename_with rn t)))
       a)

let answer_words (a : answer) =
  List.fold_left (fun acc (_, t) -> acc + 1 + Term.size t) 0 a
