(** One fully associative cache with perfect LRU replacement (the
    paper's cache model), O(1) per operation. *)

type node = {
  mutable line : int;
  mutable dirty : bool;
  mutable prev : node;
  mutable next : node;
}

type t

val create : lines:int -> t

val find : t -> int -> node option
(** Look up a resident line (does not update recency). *)

val touch : t -> node -> unit
(** Mark a resident line most-recently-used. *)

val insert : t -> int -> dirty:bool -> (int * bool) option
(** Insert a non-resident line; returns the evicted [(line, dirty)]
    when the cache was full. *)

val invalidate : t -> int -> bool
(** Drop a line (coherency); [true] if it was resident. *)

val resident : t -> int -> bool
val occupancy : t -> int
val iter : (node -> unit) -> t -> unit
