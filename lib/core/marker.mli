(** Input markers (paper, Table 1 "Markers").

    A marker delimits a stack section: it is pushed on the executing
    worker's control stack when a stolen goal starts and records the
    state to restore when the goal completes, fails, or is unwound.
    Completed sections stay on the stack (their heap holds results);
    the marker bounds the trail segment that selective unwinding
    replays. *)

val push :
  Wam.Machine.t -> Wam.Machine.worker -> pf:int -> slot:int ->
  resume_p:int -> int
(** Push an input marker recording the current state; returns its
    base.  [resume_p] is the code address to resume at on completion,
    or [-1] for a stolen goal (back to Idle). *)

(** {1 Saved fields} *)

val saved_b : Wam.Machine.t -> Wam.Machine.worker -> int -> int
val saved_tr : Wam.Machine.t -> Wam.Machine.worker -> int -> int
val saved_h : Wam.Machine.t -> Wam.Machine.worker -> int -> int
val saved_lst : Wam.Machine.t -> Wam.Machine.worker -> int -> int
val resume_p : Wam.Machine.t -> Wam.Machine.worker -> int -> int

val restore_continuation : Wam.Machine.t -> Wam.Machine.worker -> int -> unit
(** Restore the pre-goal continuation state (e, cp, pf, floors,
    barrier, hb, protection); stack pointers are restored separately
    and only on failure. *)
