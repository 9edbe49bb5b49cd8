(** Abstract call/success patterns for predicates.

    A pattern describes, per argument position, definite groundness /
    definite freeness, plus the pairs of positions that may share
    structure.  Patterns are produced by the global analysis
    ([lib/analysis]) and consumed by {!Annotate}, which uses them to
    discharge run-time [ground/1]/[indep/2] checks; keeping the type
    here, with {!Absdom}, the domain both run on, avoids a dependency
    cycle between the two libraries.

    A table entry for a predicate means the predicate was reached by
    the analysis from its entry set; the entry's call pattern is the
    join over every call site seen (plus any [:- mode] contract), so it
    is only valid under the closed-world assumption that the program is
    run from those entries. *)

type gfa =
  | Ground  (** definitely ground *)
  | Free  (** definitely an unbound, unaliased variable *)
  | Any  (** unknown: possibly aliased or partially instantiated *)

type pattern = {
  args : gfa array;
  share : (int * int) list;
      (** normalized [(i, j)] with [i <= j], 0-based positions that may
          share structure; [(i, i)] means argument [i] may carry
          internal aliasing (two of its own subterm variables share). *)
}

type entry = { call : pattern; success : pattern }

type t
(** Patterns for the predicates reached by one analysis run. *)

val create : unit -> t
val set : t -> name:string -> arity:int -> entry -> unit
val find : t -> name:string -> arity:int -> entry option

val reached : t -> name:string -> arity:int -> bool
(** The analysis covered this predicate (its patterns may be consulted
    when annotating its clauses). *)

val size : t -> int

(** {1 Pattern lattice} *)

val bottom : int -> pattern
(** Most precise: every argument [Ground], no sharing. *)

val top : int -> pattern
(** No information: every argument [Any], all pairs share. *)

val join : pattern -> pattern -> pattern
val equal_pattern : pattern -> pattern -> bool

val gfa_to_string : gfa -> string
val pp : Format.formatter -> t -> unit
