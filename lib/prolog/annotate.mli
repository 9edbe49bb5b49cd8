(** Automatic CGE annotation by mode-driven independence analysis.

    Implements the analysis the paper alludes to (its reference [17]):
    clause bodies are rewritten so that consecutive user-goal calls
    proven independent run under an unconditional ['&'], goals whose
    independence is input-dependent get a conditional CGE with
    [ground/1] / [indep/2] run-time checks, and dependent goals stay
    sequential.

    The local part seeds per-clause states from [:- mode] directives.
    Supplying [?patterns] (global groundness/pair-sharing analysis
    results from [lib/analysis]) additionally seeds clause entries from
    inferred call patterns, applies inferred success patterns at call
    sites, and tracks possible aliasing pairwise -- discharging checks
    the local analysis would emit and parallelizing groups it would
    abandon.  Both parts run on one domain, {!Absdom}.

    The abstract state per variable is: ground, free-and-unaliased
    (fresh), or unknown/aliased.  Two goals are strictly independent
    when every shared variable is ground and no pair of their
    possibly-aliased variables may share structure. *)

type verdict = Keep | Small | Guard of Term.t * int
(** Granularity-control verdict for one candidate goal, produced by a
    cost oracle (see [lib/costan]): [Keep] parallelizes
    unconditionally, [Small] is provably cheaper than the spawn
    overhead and must stay sequential, [Guard (t, k)] is worth
    spawning only when [t]'s term size is at least [k] (compiled to a
    [size_ge(t, k)] check in the CGE condition, so small instances
    take the sequential else-branch at run time). *)

val database :
  ?patterns:Abspat.t ->
  ?granularity:(Term.t -> verdict) ->
  Database.t ->
  Database.t
(** Annotate every clause; returns a new database (the input is not
    modified).  Modes are the database's [:- mode ...] directives.
    [patterns] are consulted only for clauses of
    predicates the analysis reached.  [granularity] filters every
    parallel group -- both the ones this analysis builds and
    programmer-written ['&'] groups: a group whose arms are all
    [Small] is emitted as a sequential conjunction, and [Guard]
    verdicts add size checks to the group's CGE condition. *)

type stats = {
  groups : int;  (** parallel groups (CGEs) emitted *)
  checks_emitted : int;  (** run-time checks inside those groups *)
  groups_abandoned : int;
      (** joins rejected: a parallelizable goal was left sequential
          because joining needed too many checks or was dependent *)
  sequentialized : int;
      (** parallel groups turned sequential by the [granularity]
          oracle (all arms below the spawn-overhead threshold) *)
}
(** Counts of one annotation.  Checks the global analysis discharged
    are [checks_emitted] of a pattern-less annotation of the same
    program minus [checks_emitted] of this one; the callers that print
    that figure hold both. *)

val database_stats :
  ?patterns:Abspat.t ->
  ?granularity:(Term.t -> verdict) ->
  Database.t ->
  Database.t * stats
(** [database] plus the counts of that one annotation (surfaced by
    [bin/annotate] and the bench harness's annotation-quality table).
    The analyses that score the emitted groups count on the annotated
    database they hold. *)

val pp_database : Format.formatter -> Database.t -> unit
