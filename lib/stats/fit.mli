(** Population fitting for Table 3: mean, standard deviation and
    z-scores. *)

val mean : float list -> float
(** @raise Invalid_argument on []. *)

val stddev : float list -> float
(** Population standard deviation. *)

val z_score : population:float list -> float -> float
(** [(x - E) / sigma] against the population (0 when degenerate). *)
