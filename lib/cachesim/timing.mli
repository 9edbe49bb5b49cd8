(** Execution-time estimation for the two-level organization: combines
    the interleaved simulation's rounds, a protocol's bus words and an
    M/D/1 bus queue into an estimated cycle count (the analysis the
    paper defers to Tick's queueing model in §3.3). *)

type estimate = {
  cycles : float;  (** estimated execution time *)
  ideal_cycles : float;  (** without memory stalls *)
  bus_utilization : float;
  memory_efficiency : float;  (** ideal / estimated *)
  stall_cycles : float;
}

val estimate : rounds:int -> n_pes:int -> Metrics.t -> estimate
(** Solve [T = rounds*cpi + (bus_words/n_pes) * (response(T) +
    miss_penalty)] by bisection, with [cpi] = 4, one bus word per
    cycle and a 2-cycle [miss_penalty]. *)

val effective_speedup : seq:estimate -> par:estimate -> float
