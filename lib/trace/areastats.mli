(** Aggregate per-area reference statistics: read/write counts by
    area and the local/remote split (a reference is remote when its
    address lies in another PE's stack-set region). *)

type t

val create : pe_of_addr:(int -> int) -> unit -> t
(** [pe_of_addr] maps an address to its owning PE (see
    {!Wam.Layout.pe_of_addr}); the shared code region maps to [-1]. *)

val sink : t -> Sink.t
(** A sink that records into [t]: it reads each word's area,
    direction, PE and address with shifts, and counts sync words
    apart. *)

(** {1 Queries} *)

val reads : t -> Area.t -> int
val writes : t -> Area.t -> int
val refs : t -> Area.t -> int
val total : t -> int
val total_writes : t -> int

val syncs : t -> int
(** Synchronization events seen (not counted as references). *)

val data_refs : t -> int
(** All references except instruction fetches (the paper's
    "references"). *)

val local : t -> int
val remote : t -> int

val pp : Format.formatter -> t -> unit
