(** The simulated shared memory: word-addressed, backed by fixed
    4K-word pages allocated on their first write.  A page never
    written reads as 0 and is not allocated by the read.  Every
    {!read}/{!write} emits a tagged reference record to the attached
    trace sink; {!peek}/{!poke} bypass tracing (answer decoding,
    debugging, spin-wait polls). *)

type t = {
  mutable pages : int array array;
  sink : Trace.Sink.t;
}

val create : ?sink:Trace.Sink.t -> unit -> t

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
