(** Named (x, y) series with column and ASCII-bar renderers, used to
    print the figures' data. *)

type t

val create : string -> t
val add : t -> float -> float -> unit
val points : t -> (float * float) list

val render_columns : Format.formatter -> t list -> unit
(** Gnuplot-friendly columns: x then one column per series. *)

val render_bars : Format.formatter -> t -> unit
(** Crude ASCII plot, bars of up to 50 characters proportional to y. *)
