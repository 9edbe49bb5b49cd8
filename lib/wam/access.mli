(** Static memory-access metadata of the instruction set.

    For every instruction, the storage areas it may touch and in which
    direction — the static counterpart of the tagged references
    [Exec]/[Core] emit at run time.  The refmap analysis folds these
    per-instruction footprints into per-predicate area/mode summaries;
    the metadata therefore over-approximates: an access is listed if
    any execution of the instruction can perform it.

    Unification instructions are refined by groundness: a get/unify on
    a ground argument runs in read mode and never binds, so callers may
    pass a [ctx] describing which registers are known ground (seeded
    from [Prolog.Abspat] call patterns).  The default context assumes
    nothing and yields the fully conservative footprint. *)

type op = R | W

type acc = { area : Trace.Area.t; op : op }

type ctx = {
  ground : Instr.reg -> bool;
      (** is the term held by this register known ground? *)
  struct_ground : bool;
      (** the unify sequence in progress reads a ground structure
          (set after a get_structure/get_list on a ground register) *)
}

val of_instr : ?ctx:ctx -> Instr.t -> acc list
(** Areas the instruction may touch during normal (non-failing)
    execution.  Instruction fetches (Code reads) are implicit and not
    listed. *)

val may_fail : Instr.t -> bool
(** Can executing this instruction enter the failure path
    (choice-point restore + untrail)?  Calls are excluded: a callee's
    failure is attributed to the callee's own instructions. *)

val failure : parallel:bool -> acc list
(** Footprint of the failure path itself: choice-point reads, trail
    replay, and the write-through resets of trailed heap and stack
    bindings.  With [~parallel:true] (code containing parcalls) the
    footprint also covers backward execution through parallel goals:
    marker restores and parcall-frame check-ins performed while the
    failing predicate is still the PE's attribution target. *)
