(** Work and speedup accounting (paper, Figure 2).

    "Work" is the number of memory references generated by all PEs
    while doing actual processing; overhead is the difference between
    RAP-WAM work and sequential WAM work on the same benchmark. *)

type run = {
  n_pes : int;
  work_refs : int;  (** references while processing *)
  rounds : int;  (** simulated time *)
  idle_cycles : int;
  wait_cycles : int;
}

val work_percent : wam_refs:int -> run -> float
(** Work as a percentage of the sequential WAM's references. *)

val speedup : seq_rounds:int -> run -> float

val utilization : run -> float
(** Fraction of PE-cycles spent processing. *)

