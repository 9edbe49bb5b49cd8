(* Mode declarations.

   `:- mode f(+, -, ?).` declares, per argument position:
     +  ground when the predicate is called (and still ground on exit)
     -  free (unbound, unaliased) when called, ground on success
     ?  unknown

   Modes seed the independence analysis in [Annotate]; builtins carry
   their natural modes. *)

type arg_mode = Ground_in | Free_in_ground_out | Unknown

type t = {
  table : (string * int, arg_mode list) Hashtbl.t;
}

let create () = { table = Hashtbl.create 32 }

let declare t ~name ~modes =
  Hashtbl.replace t.table (name, List.length modes) modes

let lookup t ~name ~arity = Hashtbl.find_opt t.table (name, arity)

let arg_mode_of_string = function
  | "+" -> Some Ground_in
  | "-" -> Some Free_in_ground_out
  | "?" -> Some Unknown
  | _ -> None

exception Bad_declaration of string

(* Parse one `mode f(+, -, ?)` directive body. *)
let of_directive t term =
  match term with
  | Term.Struct ("mode", [ Term.Struct (name, args) ]) ->
    let modes =
      List.map
        (fun arg ->
          match arg with
          | Term.Atom s -> (
            match arg_mode_of_string s with
            | Some m -> m
            | None ->
              raise
                (Bad_declaration
                   (Printf.sprintf "bad mode %S in mode %s/%d" s name
                      (List.length args))))
          | Term.Int _ | Term.Var _ | Term.Struct _ ->
            raise
              (Bad_declaration
                 (Printf.sprintf "bad mode argument in mode %s" name)))
        args
    in
    declare t ~name ~modes;
    true
  | Term.Struct ("mode", [ Term.Atom _ ]) -> true (* 0-ary: nothing to do *)
  | Term.Atom _ | Term.Int _ | Term.Var _ | Term.Struct _ -> false

(* Collect all mode declarations from a database's directives. *)
let of_database db =
  let t = create () in
  List.iter (fun d -> ignore (of_directive t d)) (Database.directives db);
  t

(* Natural modes of the builtins the analysis understands. *)
let builtin_modes name arity : arg_mode list option =
  match (name, arity) with
  | "is", 2 -> Some [ Free_in_ground_out; Ground_in ]
  | ("<" | ">" | "=<" | ">=" | "=:=" | "=\\="), 2 ->
    Some [ Ground_in; Ground_in ]
  | ("atomic" | "atom" | "integer" | "ground" | "compound" | "nonvar"), 1 ->
    Some [ Unknown ]
  | "var", 1 -> Some [ Unknown ]
  | ("true" | "fail" | "false" | "!"), 0 -> Some []
  | ("write" | "print"), 1 -> Some [ Unknown ]
  | "nl", 0 -> Some []
  | _ -> None
