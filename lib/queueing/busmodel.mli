(** Shared-bus contention model for the two-level organization: N PEs
    each generating word references, a cache capturing their share,
    the remainder on the bus. *)

type t = {
  n_pes : int;
  refs_per_cycle : float;  (** per-PE word references per cycle *)
  traffic_ratio : float;  (** fraction of references reaching the bus *)
  bus_words_per_cycle : float;  (** bus bandwidth *)
}

val make :
  n_pes:int -> refs_per_cycle:float -> traffic_ratio:float ->
  bus_words_per_cycle:float -> t

val utilization : t -> float

val pe_efficiency : t -> float
(** Efficiency of each PE once bus stalls are charged to it. *)

val effective_pes : t -> float
(** [n_pes * pe_efficiency]. *)
