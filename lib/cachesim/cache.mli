(** One fully associative cache with perfect LRU replacement (the
    paper's cache model), O(1) per operation and allocation-free.

    Lines are named by small non-negative int keys (the dense line
    ids {!Multi} interns) and sit in slots; a slot is valid until its
    line is evicted or invalidated. *)

type t

val create : lines:int -> t

val find : t -> int -> int
(** The slot of a resident key, or -1 (does not update recency). *)

val touch : t -> int -> unit
(** Mark the line in a slot most-recently-used. *)

val dirty : t -> int -> bool
val set_dirty : t -> int -> bool -> unit

val insert : t -> int -> dirty:bool -> int
(** Insert a non-resident key; returns the key it evicted when the
    cache was full, else -1.  The victim's dirty flag is then
    {!evicted_dirty}. *)

val evicted_dirty : t -> bool
(** Whether the line the last evicting {!insert} dropped was dirty. *)

val invalidate : t -> int -> bool
(** Drop a line (coherency); [true] if it was resident.  Its slot is
    reused before any later eviction. *)

val resident : t -> int -> bool
val occupancy : t -> int
