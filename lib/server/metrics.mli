(** Latency accounting: a growable sample buffer with percentile
    readout.  Single-writer — the server records samples from the
    accepting thread only, after each batch completes. *)

type t

val create : unit -> t
val add : t -> float -> unit

val of_samples : float list -> t
(** A buffer pre-loaded with the given samples, in order. *)

val mean : t -> float
(** 0 when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0, 100], by nearest-rank on the
    sorted samples; 0 when empty. *)

type summary = {
  n : int;
  mean_s : float;
  p50_s : float;
  p95_s : float;
  p99_s : float;
  max_s : float;
}

val summary : t -> summary

val mean_and_cs2 : t -> float * float
(** Mean and squared coefficient of variation (variance / mean²) of
    the samples — the shape the M/G/1 model wants.  (0, 0) when
    empty. *)
