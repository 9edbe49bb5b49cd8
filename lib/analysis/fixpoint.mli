(** Worklist fixpoint over call/success patterns.

    Entry seeding comes from [:- mode] directives (a declared calling
    contract) and from explicit entry goals (queries).  Call patterns
    grow as the join over every call site the analysis reaches;
    success patterns grow bottom-up from [bottom] ("no success known
    yet": a call whose callee has no success pattern aborts the
    clause, the standard optimistic least-fixpoint scheme).  The
    lattice is finite so the iteration terminates; a cap of 40
    recomputations per predicate jumps a misbehaving predicate to top
    as a safety net.  The calling contracts are the database's own
    [:- mode] directives ({!Prolog.Modes.of_database}).

    A variable goal anywhere in reachable code makes the program
    open-world: every predicate is then seeded with the top call
    pattern. *)

type outcome = {
  patterns : Prolog.Abspat.t;
  iterations : int;  (** predicate-body reanalyses performed *)
  widened : int;  (** predicates forced to top by the iteration cap *)
  open_world : bool;  (** a variable goal forced worst-case seeding *)
}

val run : ?entries:Prolog.Term.t list -> Prolog.Database.t -> outcome
