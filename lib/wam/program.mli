(** A compiled program: database + symbol table + code + query entry.

    A database is compiled once into an {!image}; {!with_query} then
    compiles one query on top of it.  The query is compiled as a
    synthetic predicate whose arguments are the query's free
    variables, so drivers can seed A1..Ak with fresh heap variables
    and decode the answers from them. *)

type t = {
  db : Prolog.Database.t;  (** the database with the query asserted *)
  symbols : Symbols.t;
  code : Code.t;
  query_fid : int;
  query_vars : string list;
}

type image
(** A compiled database without a query.  It is never mutated after
    {!image} returns, so any number of domains may call {!with_query}
    on one image at once. *)

val image :
  ?parallel:bool -> ?det:Compile.det_plan -> ?bind:Compile.bind_plan ->
  ?chains:Compile.chain_info list ref -> Prolog.Database.t -> image
(** Compile every predicate of the database, which the image then
    owns.  [parallel = false] gives the sequential WAM baseline (CGEs
    read as plain conjunctions).  [det] enables determinacy-driven
    choice-point elision; [bind] enables binding-certified instruction
    specialization; both are consulted again for every query compiled
    on the image, from whichever domain compiles it.  [chains] logs
    every emitted try chain. *)

val with_query :
  ?chains:Compile.chain_info list ref -> image -> query:string -> t
(** Parse the query and compile it, with the auxiliary predicates its
    control constructs lift out, onto copies of the image's code,
    symbol table and database.  Code addresses and symbol ids equal
    those of one whole-program compile of the database plus the query.
    [chains] logs the query's try chains.
    @raise Prolog.Parser.Error on a bad query. *)

val of_database :
  ?parallel:bool -> ?det:Compile.det_plan -> ?bind:Compile.bind_plan ->
  ?chains:Compile.chain_info list ref ->
  Prolog.Database.t -> query:string -> unit -> t
(** {!image} then {!with_query}; the database itself is not changed. *)

val prepare :
  ?parallel:bool -> ?det:Compile.det_plan -> ?bind:Compile.bind_plan ->
  ?chains:Compile.chain_info list ref ->
  src:string -> query:string -> unit -> t
(** Parse and load [src] first, then {!of_database}. *)

val entry : t -> int
(** Code address of the compiled query. *)

val arity : t -> int
(** Number of query variables. *)

val pp_listing : Format.formatter -> t -> unit
(** Disassembly of the whole compiled program. *)

val error_message : exn -> string option
(** The one-line text of a typed program error: a syntax, load, CGE
    or compile error in the source or query, or a runtime error of
    the machine.  [None] for any other exception. *)
