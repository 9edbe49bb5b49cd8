(** The instruction set's memory footprint: the one per-opcode table.

    For every instruction and every storage area it may touch, the
    directions it may reference the area in and an interval counting
    its references there — the static counterpart of the tagged
    references [Exec]/[Core] emit at run time, and the paper's §3.3
    "references per instruction" constant per opcode and Table 1 area.
    The refmap analysis and wamlint read the directions; costan sums
    the intervals ({!Costan.Footprint.clause}).

    The interval is per area, not per direction: [unify_variable]
    makes one heap reference that is a read in read mode and a write
    in write mode.  Instruction fetches (Code reads) are implicit and
    not listed.

    Unification instructions are refined by groundness: a get/unify on
    a ground argument runs in read mode and never binds, so callers may
    pass a [ctx] describing which registers are known ground (seeded
    from [Prolog.Abspat] call patterns).  The default context assumes
    nothing and yields the fully conservative footprint.

    The footprint test runs the nine benchmarks (sequential; 1, 4 and
    8 PEs plain, det-compiled and det+bind compiled) through
    {!Profile.attribute} and holds every window to this table: its
    (area, direction) pairs must lie in the instruction's entries
    (plus {!failure} when {!may_fail}), and on an instruction that
    cannot fail each area's count must lie in its interval.  On a
    may-fail instruction [hi] is not checked: it stays costan's
    success-path estimate. *)

type ctx = {
  ground : Instr.reg -> bool;
      (** is the term held by this register known ground? *)
  struct_ground : bool;
      (** the unify sequence in progress reads a ground structure
          (set after a get_structure/get_list on a ground register) *)
}

type entry = {
  area : Trace.Area.t;
  ops : Trace.Ref_record.op list;  (** the directions it may take *)
  lo : int;
  hi : int;
      (** references to [area], [lo..hi]; [max_int] where no static
          bound covers the count (a trail flush, a term walk, the
          failure path) *)
}

val of_instr : ?ctx:ctx -> ?shallow:bool -> arity:int -> Instr.t -> entry list
(** The references the instruction makes during normal (non-failing)
    execution, one entry per area.  [arity] is the owning predicate's
    (a choice point saves that many argument registers).  [shallow]:
    the code has determinacy-certified chains, so an instruction that
    commits a shallow frame ([Exec.commits]) may flush its undo log to
    the trail. *)

val may : entry list -> Trace.Area.t -> Trace.Ref_record.op -> bool
(** Does one of the entries list this (area, direction)? *)

val may_fail : Instr.t -> bool
(** Can executing this instruction enter the failure path
    (choice-point restore + untrail)?  Calls are excluded: a callee's
    failure is attributed to the callee's own instructions. *)

val failure : parallel:bool -> entry list
(** Footprint of the failure path itself, unbounded: choice-point
    reads, trail replay, and the write-through resets of trailed heap
    and stack bindings.  With [~parallel:true] (code containing
    parcalls) the footprint also covers backward execution through
    parallel goals: marker restores, parcall-frame reads and check-ins
    performed while the failing instruction's window is still open. *)
