(** The simulated shared memory: word-addressed, backed by fixed
    4K-word pages allocated on their first write.  A page never
    written reads as 0 and is not allocated by the read; {!clear}
    zeroes the pages written so far, for reuse.  Every
    {!read}/{!write} emits a tagged reference record to the attached
    trace sink; {!peek}/{!poke} bypass tracing (answer decoding,
    debugging, spin-wait polls). *)

type t = {
  mutable pages : int array array;
  mutable written : int list;
  mutable spare : int array list;
  sink : Trace.Sink.t;
}

val create : ?sink:Trace.Sink.t -> ?reuse:t -> unit -> t
(** A memory that reads 0 at every address.  [reuse], a memory that
    was {!clear}ed and is not used again, hands over its page
    directory and its spare pages. *)

val clear : t -> unit
(** Make every word read 0 again by zeroing only the pages written
    since {!create} or the last [clear]; up to 64 of them are kept as
    spares for later first writes. *)

val read : t -> pe:int -> area:Trace.Area.t -> int -> int
val write : t -> pe:int -> area:Trace.Area.t -> int -> int -> unit

val sync : t -> pe:int -> kind:Trace.Ref_record.sync_kind -> int -> unit
(** Record an explicit synchronization event in the trace; no memory
    access is performed.  The address names the word the
    happens-before edge hangs off (a lock word, a published frame). *)

val read_auto : t -> pe:int -> int -> int
(** Like {!read} with the area derived from the address. *)

val write_auto : t -> pe:int -> int -> int -> unit

val peek : t -> int -> int
(** Untraced read. *)

val poke : t -> int -> int -> unit
(** Untraced write. *)
