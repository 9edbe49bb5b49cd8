(** The RAP-WAM multi-worker simulator: deterministic round-robin
    interleaving of PEs over one shared memory, on-demand scheduling
    through goal stacks (steal from the bottom, own work from the
    top), parcall frames/markers for forward and backward execution,
    and message-based unwinding across PEs.

    Stolen goals run under input markers delimiting stack sections;
    goals the parent runs itself are plain calls, keeping 1-PE RAP-WAM
    work close to the sequential WAM.  Waiting and idle PEs poll with
    untraced peeks: the paper's "work" metric counts only references
    made while processing. *)

type steal_policy =
  | Steal_oldest  (** take the victim's oldest goal (coarsest grain) *)
  | Steal_newest  (** take the newest (ablation policy) *)

type t = {
  m : Wam.Machine.t;
  queues : Messages.queues;
  mutable rounds : int;  (** simulated time: scheduler rounds so far *)
  mutable stagnant : int;
  steal : steal_policy;
  eager_kill : bool;  (** send kill messages on parcall failure *)
  allow_steal : bool;  (** [false]: PEs never steal (ablation) *)
  memory : Memmodel.t option;
      (** integrated two-level memory timing: when present, every
          reference goes through per-PE caches and the shared bus,
          and PEs stall on misses *)
}

val create :
  ?sink:Trace.Sink.t -> ?steal:steal_policy ->
  ?eager_kill:bool -> ?allow_steal:bool -> ?memory:Memmodel.t ->
  n_workers:int -> Wam.Program.t -> t

val run_prepared : ?max_rounds:int -> t -> Wam.Program.t -> Wam.Seq.result
(** Seed the query on worker 0 and run rounds to the first solution. *)

val run :
  ?sink:Trace.Sink.t -> ?steal:steal_policy ->
  ?eager_kill:bool -> ?allow_steal:bool -> ?memory:Memmodel.t ->
  ?max_rounds:int -> n_workers:int -> Wam.Program.t -> Wam.Seq.result * t

val solve :
  ?steal:steal_policy -> ?eager_kill:bool -> ?allow_steal:bool ->
  ?max_rounds:int -> n_workers:int -> src:string -> query:string -> unit ->
  Wam.Seq.result * t
(** Parse, compile with CGEs enabled, and {!run}. *)
