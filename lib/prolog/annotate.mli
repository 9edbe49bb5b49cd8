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
    abandon.  Without [?patterns] the behavior is exactly the
    historical local analysis.

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
  checks_discharged : int;
      (** checks a pattern-less annotation of the same program emits
          minus [checks_emitted] (0 without [?patterns]) *)
  groups_abandoned : int;
      (** joins rejected: a parallelizable goal was left sequential
          because joining needed too many checks or was dependent *)
  sequentialized : int;
      (** parallel groups turned sequential by the [granularity]
          oracle (all arms below the spawn-overhead threshold) *)
  static_safe : int;
      (** emitted groups the [certifier] proved race-free statically
          (0 without [?certifier]); such groups need no dynamic
          verification *)
  det_arms : int;
      (** arms of emitted parallel groups whose called predicate the
          [determinacy] judgment proves has at most one solution (0
          without [?determinacy]); backtracking never re-enters such
          arms, so the parcall can skip the per-goal marker
          bookkeeping it keeps for redoable arms *)
}

val database_stats :
  ?patterns:Abspat.t ->
  ?granularity:(Term.t -> verdict) ->
  ?certifier:(Cge.check list -> Term.t list -> bool) ->
  ?determinacy:(string * int -> bool) ->
  Database.t ->
  Database.t * stats
(** [database] plus annotation-quality statistics (surfaced by the
    bench harness's annotation-quality table).  [certifier] is an
    external race-freedom judgment (refmap's static access summaries)
    scored over every emitted parallel group — programmer-written and
    analysis-built alike; it does not change the annotation.
    [determinacy] is an external success-count judgment (detan's
    lattice): arms it proves deterministic are tallied in [det_arms].
    Neither judgment changes the annotation. *)

val parallelism_found : Database.t -> int
(** Number of parallel calls in an (annotated) database. *)

val pp_database : Format.formatter -> Database.t -> unit
