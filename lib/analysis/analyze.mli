(** Top-level driver for the global groundness/sharing analysis.

    [database db] runs the interprocedural fixpoint over the clause
    database and returns the inferred call/success patterns.  Entry
    seeding: every [:- mode] directive declares a calling contract,
    and each [~entries] goal (typically the query about to run) is
    abstractly executed from an all-free store.  The result is only
    valid when the program is run from those entries -- predicates
    reached some other way keep worst-case treatment in the
    annotator, which consults patterns solely for reached predicates.

    Typical pipeline:
    {[
      let summary = Analysis.Analyze.database ~entries:[query] db in
      let annotated =
        Prolog.Annotate.database
          ~patterns:(Analysis.Summary.patterns summary) db
      in
      ...
    ]} *)

val database :
  ?entries:Prolog.Term.t list ->
  ?modes:Prolog.Modes.t ->
  ?widen_after:int ->
  Prolog.Database.t ->
  Summary.t

val entry_of_string : string -> Prolog.Term.t
(** Parse a query/entry goal (conjunctions allowed). *)
