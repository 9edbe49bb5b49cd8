(** The paper's Section 3.3 back-of-the-envelope: application
    inference speed versus memory bandwidth. *)

type t = {
  instr_per_inference : float;  (** paper: 15 *)
  refs_per_instruction : float;  (** paper: 3 *)
  word_bytes : int;  (** paper: 4 *)
  capture : float;  (** fraction absorbed by caches; paper: 0.70 *)
}

val paper_assumptions : t

val of_measurements :
  instr_per_inference:float -> refs_per_instruction:float ->
  traffic_ratio:float -> unit -> t
(** Build the assumptions from measured statistics
    ([capture = 1 - traffic_ratio], 4-byte words). *)

val bytes_per_inference : t -> float

val processor_bandwidth : t -> lips:float -> float
(** Raw processor-side demand (bytes/s) at [lips] inferences/s. *)

val bus_bandwidth : t -> lips:float -> float
(** Bus-side demand once caches capture their share. *)

val pp : Format.formatter -> t -> unit
(** Print the 2-MLIPS calculation under these assumptions. *)
