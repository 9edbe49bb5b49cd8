(** Goal stacks and goal frames (paper, Table 1 "Goal Frames").

    Each worker's goal stack holds the frames of goals awaiting
    execution: the pusher pops its own work from the top, idle PEs
    steal from the bottom (oldest goal, coarsest granularity).  The
    stack is guarded by a lock word; the top/bottom pointers live in
    memory so remote PEs generate real traffic. *)

type goal = {
  pf : int;  (** parcall frame address *)
  slot : int;
  entry : int;  (** code entry point *)
  arity : int;
  args : int array;  (** cells copied from the pusher's A registers *)
  pusher : int;  (** PE that pushed the frame *)
}

val push :
  Wam.Machine.t -> Wam.Machine.worker -> pf:int -> slot:int -> entry:int ->
  arity:int -> unit
(** Push a goal whose arguments sit in the pusher's A1..An. *)

val pop_own : Wam.Machine.t -> Wam.Machine.worker -> goal option
(** Pop the newest own frame. *)

val steal :
  Wam.Machine.t -> Wam.Machine.worker -> Wam.Machine.worker -> goal option
(** [steal m thief victim]: take the victim's oldest frame, charging
    the traffic to the thief. *)

val pop_newest :
  Wam.Machine.t -> Wam.Machine.worker -> Wam.Machine.worker -> goal option
(** Steal the newest frame instead (ablation policy). *)

val has_work : Wam.Machine.worker -> bool
(** Untraced probe used by idle PEs scanning for work. *)

val peek_top_pf : Wam.Machine.t -> Wam.Machine.worker -> int option
(** Untraced: parcall frame of the newest own frame. *)
