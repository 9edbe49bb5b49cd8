(** Deterministic input generators.

    The paper ran each benchmark "on relatively large input data" but
    does not publish it; these generators are sized so the 8-PE counts
    land in the order of magnitude of Table 2.  All randomness is a
    fixed-seed LCG. *)

val lcg : int -> int -> int
(** [lcg seed] is a generator; applying it to [bound] draws the next
    pseudo-random value in [0, bound). *)

val deriv_expr : (int -> int) -> int -> string
(** Random expression over [x] of the given depth. *)

val deriv_query : ?depth:int -> ?iterations:int -> ?seed:int -> unit -> string
val tak_query : ?x:int -> ?y:int -> ?z:int -> unit -> string
val qsort_query : ?n:int -> ?seed:int -> unit -> string
val matrix_query : ?n:int -> ?seed:int -> unit -> string

val random_list : n:int -> seed:int -> bound:int -> int list
val matrix_text : n:int -> seed:int -> string

val default_benchmarks : unit -> Programs.benchmark list
(** The four benchmarks at paper-scale inputs. *)

val small_benchmarks : unit -> Programs.benchmark list
(** Reduced variants for quick tests. *)

val benchmark : ?quick:bool -> string -> Programs.benchmark
(** Look up a benchmark by name: at paper scale, or with [~quick:true]
    among {!small_benchmarks}.
    @raise Invalid_argument on unknown names. *)
