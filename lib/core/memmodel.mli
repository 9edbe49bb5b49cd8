(** Integrated two-level memory timing: per-PE coherent caches and a
    serializing shared bus evaluated {e inside} the scheduler loop, so
    memory stalls delay PEs, reshape scheduling, and turn the
    simulated rounds into a contention-aware time estimate. *)

type t

val create :
  ?bus_words_per_cycle:float -> ?mem_latency:int -> n_pes:int ->
  Cachesim.Protocol.config -> t

val set_now : t -> int -> unit
(** Tell the model the current scheduler round. *)

val reference : t -> Trace.Ref_record.t -> unit

val sink : t -> Trace.Sink.t
(** A sink that feeds every traced reference through the model. *)

val stalled : t -> int -> bool
(** Is this PE still waiting for memory at the current round? *)

val stats : t -> Cachesim.Metrics.t
val total_stalls : t -> float
