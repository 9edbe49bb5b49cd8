(** Minimal growable array (OCaml 5.1 predates [Stdlib.Dynarray]). *)

type 'a t

val create : dummy:'a -> 'a t
val length : 'a t -> int

val copy : 'a t -> 'a t
(** An independent vector with the same elements. *)

val add : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a

val truncate : 'a t -> int -> unit
(** [truncate t n] keeps the first [n] elements.
    @raise Invalid_argument unless [0 <= n <= length t]. *)

val set : 'a t -> int -> 'a -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
