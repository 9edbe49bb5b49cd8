(* A compiled program: database + symbol table + code + query entry.

   The database is compiled once into an image; each query is then
   compiled on top of copies of the image's tables.  The query is a
   synthetic predicate whose arguments are the query's free variables,
   so the drivers can seed A1..Ak with fresh heap variables and decode
   the answers from them. *)

type t = {
  db : Prolog.Database.t;
  symbols : Symbols.t;
  code : Code.t;
  query_fid : int;
  query_vars : string list;
}

(* Never mutated after [image] returns: [with_query] compiles into
   copies, so domains may share an image without locking. *)
type image = {
  im_db : Prolog.Database.t;
  im_symbols : Symbols.t;
  im_code : Code.t;
  im_arms : Compile.arms;
  im_parallel : bool;
  im_det : Compile.det_plan option;
  im_bind : Compile.bind_plan option;
}

let query_name = "$query"

(* [parallel = false] gives the sequential WAM baseline (CGEs read as
   plain conjunctions).  The image owns [db] from here on. *)
let image ?(parallel = true) ?det ?bind ?chains db =
  let symbols = Symbols.create () in
  let code, arms = Compile.start () in
  let arms =
    Compile.compile_predicates ~parallel ?det ?bind ?chains symbols code arms
      db (Prolog.Database.predicates db)
  in
  {
    im_db = db;
    im_symbols = symbols;
    im_code = code;
    im_arms = arms;
    im_parallel = parallel;
    im_det = det;
    im_bind = bind;
  }

(* Assert the query into a copy of the image's database and compile
   only what that added: the query's auxiliary predicates, then
   [$query], then the pending builtin arms.  That is the order a
   whole-program compile of the database plus the query emits them
   in, so every code address and symbol id is the same.  Builtins
   such as functor/3 intern symbols at run time, which is why the
   symbol table is copied too. *)
let with_query ?chains im ~query =
  let q_term = Prolog.Parser.term_of_string query in
  let query_vars = Prolog.Term.vars q_term in
  let head =
    match query_vars with
    | [] -> Prolog.Term.Atom query_name
    | _ :: _ ->
      Prolog.Term.Struct
        (query_name, List.map (fun v -> Prolog.Term.Var v) query_vars)
  in
  let db = Prolog.Database.copy im.im_db in
  Prolog.Database.assert_term db (Prolog.Term.Struct (":-", [ head; q_term ]));
  let known = Prolog.Database.predicate_count im.im_db in
  let added =
    List.filteri (fun i _ -> i >= known) (Prolog.Database.predicates db)
  in
  let symbols = Symbols.copy im.im_symbols in
  let code = Code.copy im.im_code in
  Compile.finish code
    (Compile.compile_predicates ~parallel:im.im_parallel ?det:im.im_det
       ?bind:im.im_bind ?chains symbols code im.im_arms db added);
  let query_fid =
    Symbols.functor_ symbols query_name (List.length query_vars)
  in
  { db; symbols; code; query_fid; query_vars }

let of_database ?parallel ?det ?bind ?chains db ~query () =
  with_query ?chains (image ?parallel ?det ?bind ?chains db) ~query

let prepare ?parallel ?det ?bind ?chains ~src ~query () =
  of_database ?parallel ?det ?bind ?chains (Prolog.Database.of_string src)
    ~query ()

let entry t =
  match Code.entry t.code t.query_fid with
  | Some addr -> addr
  | None -> invalid_arg "Program.entry: query was not compiled"

let arity t = List.length t.query_vars

let pp_listing fmt t = Code.pp t.symbols fmt t.code

let error_message = function
  | Prolog.Parser.Error (msg, pos) ->
    Some (Printf.sprintf "syntax error at %d: %s" pos msg)
  | Prolog.Database.Load_error msg -> Some ("load error: " ^ msg)
  | Prolog.Cge.Ill_formed msg -> Some ("bad CGE: " ^ msg)
  | Compile.Error msg -> Some ("compile error: " ^ msg)
  | Machine.Runtime_error msg -> Some msg
  | _ -> None
