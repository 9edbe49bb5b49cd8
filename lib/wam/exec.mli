(** The WAM execution core: dereferencing, binding, trailing,
    unification, arithmetic, builtins, backtracking, and the
    sequential instruction semantics.  All memory accesses go through
    {!Memory} and are traced.

    The parallel instructions (alloc_parcall, push_goal, par_join,
    goal_done) are not handled here; the RAP-WAM simulator intercepts
    them before delegating to {!step_core}. *)

exception No_more_choices of Machine.worker
(** Raised by {!fail} when backtracking reaches the execution barrier:
    query failure for the root context, goal/inline failure inside a
    parallel context. *)

exception Parallel_instr of Instr.t
(** Raised by {!step_core} on RAP-WAM instructions. *)

(** {1 Memory access} (traced, charged to the worker) *)

val fetch_traced : Machine.t -> Machine.worker -> Instr.t
(** Fetch the instruction at [w.p], emitting a Code-area read. *)

(** {1 Terms on the heap} *)

val deref : Machine.t -> Machine.worker -> int -> int
val untrail_to : Machine.t -> Machine.worker -> int -> unit
val fresh_heap_var : Machine.t -> Machine.worker -> int

val unify : Machine.t -> Machine.worker -> int -> int -> bool
(** General unification; the current pair lives in registers, the PDL
    holds only extra sub-pairs of compound terms.
    @raise Machine.Runtime_error when a long walk finds its terms
    cyclic (as do comparison, [ground/1] and [indep/2]). *)

(** {1 Source-term conversion} *)

val decode : Machine.t -> Machine.worker -> int -> Prolog.Term.t
(** Cell to source term (untraced reads).  A shared subterm decodes
    once per occurrence.
    @raise Machine.Runtime_error on a cyclic term. *)

val encode :
  Machine.t -> Machine.worker -> (string, int) Hashtbl.t -> Prolog.Term.t ->
  int
(** Build a source term on the worker's heap; variables share bindings
    through the table (name -> heap address). *)

(** {1 Control} *)

val choice_point_words : int -> int
(** The words of a choice point that saves this many argument
    registers. *)

val fail : Machine.t -> Machine.worker -> unit
(** Backtrack to the newest choice point — or, when the worker's
    shallow frame is active, restore its snapshot and continue at the
    frame's next alternative (no choice-point reads, never raises).
    @raise No_more_choices at the barrier. *)

(** {1 Shallow frames (determinacy-certified chains)} *)

val commits : Instr.t -> bool
(** Does this instruction end a certified clause's test prefix?
    (call/execute/proceed/halt, cut, and the parcall group; builtins
    deliberately stay inside the shallow window.) *)

val maybe_commit : Machine.t -> Machine.worker -> Instr.t -> unit
(** Fetch-time commit check: retire the active shallow frame (flushing
    its undo log to the trail where the trail condition demands it)
    when the fetched instruction {!commits}.  Called by {!step} and by
    the RAP-WAM simulator's own fetch path. *)

val abandon_shallow : Machine.t -> Machine.worker -> unit
(** Deactivate an active shallow frame without running its remaining
    alternatives, restoring the logged bindings (goal teardown). *)

val step_core : Machine.t -> Machine.worker -> Instr.t -> unit
(** Execute one (sequential) instruction; [w.p] must already point
    past it.  @raise Parallel_instr on RAP-WAM instructions. *)

val step : Machine.t -> Machine.worker -> unit
(** Fetch (traced), count, advance, execute. *)
