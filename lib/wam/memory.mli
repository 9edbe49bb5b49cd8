(** The simulated shared memory: word-addressed, backed by fixed
    4K-word pages allocated on their first write.  A page never
    written reads as 0 and is not allocated by the read; {!clear}
    zeroes what was written of those pages, for reuse.  Every
    {!read}/{!write} emits one packed word ({!Trace.Ref_record}'s
    layout, built inline: no record is allocated) to the attached
    trace sink, and {!sync} a sync word; {!peek}/{!poke} bypass
    tracing (answer decoding, debugging, spin-wait polls).  A traced
    PE must be in [0, Trace.Ref_record.max_pe] ({!Machine.create}
    bounds it); this is not checked per reference. *)

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

val clear : t -> limit:(int -> int) -> unit
(** Make every word read 0 again, zeroing only the pages written since
    {!create} or the last [clear].  [limit a], for the first address
    [a] of such a page, is an address at or above which no word of
    the page was written: the page is zeroed from [a] up to it, and
    not at all when it is [a] or below ([max_int] zeroes the whole
    page).  Up to 64 of the pages are kept as spares for later first
    writes. *)

val read : t -> pe:int -> area:Trace.Area.t -> int -> int
(** @raise Invalid_argument on a negative address, whatever the
    sink. *)

val write : t -> pe:int -> area:Trace.Area.t -> int -> int -> unit
(** @raise Invalid_argument on a negative address, whatever the
    sink. *)

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
