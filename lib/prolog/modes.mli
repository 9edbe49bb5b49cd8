(** Mode declarations ([:- mode f(+, -, ?).]).

    Per argument position: [+] ground at call (and exit), [-] free and
    unaliased at call, ground on success, [?] unknown.  Modes seed the
    independence analysis in {!Annotate}. *)

type arg_mode = Ground_in | Free_in_ground_out | Unknown

type t

exception Bad_declaration of string

val lookup : t -> name:string -> arity:int -> arg_mode list option

val of_database : Database.t -> t
(** Collect every mode declaration from a database's directives. *)

val builtin_modes : string -> int -> arg_mode list option
(** Natural modes of the builtins the analysis understands. *)
