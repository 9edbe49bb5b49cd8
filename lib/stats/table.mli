(** Plain-text table rendering for the benchmark harness output. *)

type align = Left | Right

type t

val create :
  title:string -> headers:string list -> ?aligns:align list -> unit -> t
(** Alignments default to [Right] everywhere. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument when the arity does not match. *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string

val render : Format.formatter -> t -> unit
val print : t -> unit
