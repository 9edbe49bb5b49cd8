(** Static verifier over compiled WAM/RAP-WAM code.

    [check] runs a forward dataflow analysis from every predicate
    entry (plus the fixed halt/goal-done return points), tracking
    which argument/temporary X registers and environment Y slots hold
    defined values, whether an environment is allocated and how big it
    is, whether a structure (unify) context is open, and the state of
    an open parcall region.  Rules checked:

    - X/A and Y registers are defined before use; calls clobber the X
      bank; backtracking restores exactly A1..An.
    - Y-slot accesses require a live environment and stay inside the
      [allocate] size; [deallocate] is immediately followed by
      [execute] or [proceed] (no dangling-frame access).
    - [put_unsafe_value] only reads a defined in-bounds Y slot of a
      live environment.
    - [try]/[retry]/[trust] chains, deep or shallow, are well-formed
      (contiguous, trust last, no mixing of the two kinds) and their
      targets, switch targets and jump targets are in bounds ([-1] =
      fail is legal in switch tables only).
    - orphan-chain: a [retry]/[trust] of either kind reachable on
      some control-flow path whose predecessor was not
      the matching try/retry — it would update or pop a frame nobody
      pushed, the shape a buggy choice-point elision leaves behind.
    - [alloc_parcall] points at a [par_join]; each of its goal slots
      is pushed exactly once before the join; pushed goals name
      predicates with real code entries and consistent arities.
    - trail discipline: [cut_to Y_n] only names a slot that holds a
      choice-point level saved by [get_level Y_n] on every path (and
      not clobbered since), so the cut unwinds the trail to a real
      mark.
    - unify instructions appear only in a structure context; every
      instruction is reachable from some entry.
    - parcall region discipline, from the per-instruction access
      metadata ({!Access}): no cut inside an open parcall region
      ([parcall-cut] -- siblings must die through the kill protocol),
      no CGE check inside one ([parcall-check] -- the else-branch
      cannot unwind the frame), and no write to a cross-PE
      coordination area (parcall slots/counters, goal frames) outside
      one ([shared-write-unframed]).
    - environment-size drift ([env-drift]): an environment that is
      still allocated at [proceed]/[execute] where the path since its
      [allocate] ran only builtins and data instructions -- an
      allocate/deallocate imbalance no call could excuse, so each
      activation leaks a frame and the stack drifts upward.
    - trail-elision discipline ([nt-builtin]): a [builtin] with the
      [uncond] flag may only name =/2 or is/2 -- the only builtins
      whose bindings the binding
      analysis certifies; in particular the \=/2 trial-undo protocol
      must never run with trailing elided. *)

type diag = {
  addr : int;  (** code address of the offending instruction *)
  pred : string;  (** ["name/arity"] of the entry that reached it *)
  rule : string;  (** short rule identifier, e.g. ["use-before-def"] *)
  message : string;
}

val check : Symbols.t -> Code.t -> diag list
(** Diagnostics in code-address order; [[]] means the code verifies. *)

val check_program : Program.t -> diag list

val pp_diag : Format.formatter -> diag -> unit
