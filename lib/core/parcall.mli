(** Parcall frames: the per-CGE coordination record pushed on the
    parent's local stack (paper, Table 1 rows "Parcall F./*").

    A frame holds the locked goal counter decremented as goals check
    in, the failure status, per-slot executor words, recovery state for
    backward execution, and the join address.  [k] counts only the
    PUSHED goals: the parent runs the CGE's first goal inline, so a
    k-ary CGE pushes k-1 goal frames.  Allocating a frame also makes it
    the worker's backtrack barrier. *)

val off_lock : int
(** The lock word; Acquire/Release and Join sync events reference it. *)

val off_status : int
val off_slots : int

val alloc : Wam.Machine.t -> Wam.Machine.worker -> int -> join_addr:int -> int
(** Allocate a frame for [k] pushed goals; returns its address and
    sets the worker's PF, barrier and protection floors. *)

(** {1 Traced field access} *)

val k : Wam.Machine.t -> Wam.Machine.worker -> int -> int
val counter : Wam.Machine.t -> Wam.Machine.worker -> int -> int
val status : Wam.Machine.t -> Wam.Machine.worker -> int -> int
val parent : Wam.Machine.t -> Wam.Machine.worker -> int -> int
val prev_pf : Wam.Machine.t -> Wam.Machine.worker -> int -> int
val saved_b : Wam.Machine.t -> Wam.Machine.worker -> int -> int
val saved_tr : Wam.Machine.t -> Wam.Machine.worker -> int -> int
val saved_h : Wam.Machine.t -> Wam.Machine.worker -> int -> int
val saved_cst : Wam.Machine.t -> Wam.Machine.worker -> int -> int
val join_addr : Wam.Machine.t -> Wam.Machine.worker -> int -> int
val saved_barrier : Wam.Machine.t -> Wam.Machine.worker -> int -> int

val saved_hb : Wam.Machine.t -> Wam.Machine.worker -> int -> int
(** Trail-condition heap boundary at frame allocation; restored when
    the join commits so determinate code does not keep over-trailing
    against a dead recovery point. *)

val saved_prot : Wam.Machine.t -> Wam.Machine.worker -> int -> int
(** Local-stack protection floor at frame allocation (same role). *)

val slot_exec : Wam.Machine.t -> Wam.Machine.worker -> int -> int -> int
val set_slot_exec : Wam.Machine.t -> Wam.Machine.worker -> int -> int -> int -> unit
val set_slot_done : Wam.Machine.t -> Wam.Machine.worker -> int -> int -> unit

val decode_slot : int -> int * bool * bool
(** Executor word -> (pe, started, done). *)

(** {1 Untraced polls} (spin waits; not counted as work) *)

val peek_counter : Wam.Machine.t -> int -> int
val peek_status : Wam.Machine.t -> int -> int
val peek_acks : Wam.Machine.t -> int -> int
val peek_k : Wam.Machine.t -> int -> int

(** {1 Locked operations} (modeled as 1 read + 2 writes on the lock) *)

val locked_update :
  Wam.Machine.t -> Wam.Machine.worker -> int -> off:int -> (int -> int) -> int

val check_in :
  Wam.Machine.t -> Wam.Machine.worker -> int -> failed:bool -> slot:int -> int
(** A goal checks in: raise the failure status if [failed], mark the
    slot done, decrement the counter; returns the new counter. *)

val ack : Wam.Machine.t -> Wam.Machine.worker -> int -> unit
(** Acknowledge an unwind request. *)
