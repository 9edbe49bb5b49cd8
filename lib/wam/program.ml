(* A compiled program: database + symbol table + code + query entry.

   The database is compiled once into an image; each query is then
   compiled onto a workspace: a private copy of the image's tables
   that [release] cuts back to the image's marks and keeps for the
   next query.  The query is a synthetic predicate whose arguments are
   the query's free variables, so the drivers can seed A1..Ak with
   fresh heap variables and decode the answers from them. *)

(* The three tables a query is compiled into. *)
type workspace = {
  ws_db : Prolog.Database.t;
  ws_symbols : Symbols.t;
  ws_code : Code.t;
}

(* The tables are never mutated after [image] returns: queries are
   compiled into workspaces, copies taken from [im_idle] (locked), so
   domains may share an image. *)
type image = {
  im_db : Prolog.Database.t;
  im_symbols : Symbols.t;
  im_code : Code.t;
  im_arms : Compile.arms;
  im_parallel : bool;
  im_det : Compile.det_plan option;
  im_bind : Compile.bind_plan option;
  im_idle : workspace Reuse.t;
}

type t = {
  db : Prolog.Database.t;
  symbols : Symbols.t;
  code : Code.t;
  query_fid : int;
  query_vars : string list;
  home : image;
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
    im_idle = Reuse.create ~limit:8;
  }

(* Assert the query into a workspace's database and compile only what
   that added: the query's auxiliary predicates, then [$query], then
   the pending builtin arms.  That is the order a whole-program
   compile of the database plus the query emits them in, so every code
   address and symbol id is the same.  Compiling only appends (each
   backpatch targets the predicate being compiled), which is what lets
   [release] cut the workspace back.  Builtins such as functor/3
   intern symbols at run time, which is why the symbol table is
   private too. *)
let with_query ?chains im ~query:q_term =
  let query_vars = Prolog.Term.vars q_term in
  let head =
    match query_vars with
    | [] -> Prolog.Term.Atom query_name
    | _ :: _ ->
      Prolog.Term.Struct
        (query_name, List.map (fun v -> Prolog.Term.Var v) query_vars)
  in
  let ws =
    match Reuse.take im.im_idle ~fits:(fun _ -> true) with
    | Some ws -> ws
    | None ->
      {
        ws_db = Prolog.Database.copy im.im_db;
        ws_symbols = Symbols.copy im.im_symbols;
        ws_code = Code.copy im.im_code;
      }
  in
  let db = ws.ws_db and symbols = ws.ws_symbols and code = ws.ws_code in
  Prolog.Database.assert_term db (Prolog.Term.Struct (":-", [ head; q_term ]));
  let known = Prolog.Database.predicate_count im.im_db in
  let added =
    List.filteri (fun i _ -> i >= known) (Prolog.Database.predicates db)
  in
  Compile.finish code
    (Compile.compile_predicates ~parallel:im.im_parallel ?det:im.im_det
       ?bind:im.im_bind ?chains symbols code im.im_arms db added);
  let query_fid =
    Symbols.functor_ symbols query_name (List.length query_vars)
  in
  { db; symbols; code; query_fid; query_vars; home = im }

(* A workspace that cannot be cut back exactly (a query added a clause
   to, or re-bound the entry of, an image predicate) is dropped. *)
let release p =
  let im = p.home in
  let clean =
    Prolog.Database.cut_back p.db ~base:im.im_db
    && Code.cut_back p.code ~base:im.im_code
  in
  if clean then begin
    Symbols.cut_back p.symbols ~base:im.im_symbols;
    Reuse.give im.im_idle
      { ws_db = p.db; ws_symbols = p.symbols; ws_code = p.code }
  end

let of_database ?parallel ?det ?bind ?chains db ~query () =
  let im = image ?parallel ?det ?bind ?chains db in
  with_query ?chains im ~query:(Prolog.Parser.term_of_string query)

let prepare ?parallel ?det ?bind ?chains ~src ~query () =
  of_database ?parallel ?det ?bind ?chains (Prolog.Database.of_string src)
    ~query ()

let entry t =
  let addr = Code.entry t.code t.query_fid in
  if addr < 0 then invalid_arg "Program.entry: query was not compiled";
  addr

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
