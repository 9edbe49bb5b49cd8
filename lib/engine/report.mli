(** Progress and metrics for engine sweeps.

    A reporter counts finished jobs (thread-safely, via the pool's
    serialized [on_done] hook), optionally echoing a live progress
    line to stderr, and folds into a per-stage summary.  Everything
    time-related stays out of the deterministic result stream: wall
    clocks appear only here. *)

type stage = {
  label : string;
  total : int;  (** jobs in the stage *)
  failed : int;  (** jobs whose outcome was [Error] after retry *)
  wall_s : float;  (** stage wall clock, barrier to barrier *)
  job_wall_s : float;  (** per-job wall clocks, summed *)
  jobs_per_sec : float;
}

type t

val create : ?echo:bool -> label:string -> total:int -> unit -> t
(** [echo] (default false) prints live progress to stderr. *)

val step : t -> ok:bool -> wall_s:float -> unit
(** Record one finished job. *)

val finish : t -> stage

val pp_stage : Format.formatter -> stage -> unit
