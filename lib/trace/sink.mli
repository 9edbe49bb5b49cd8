(** Trace sinks: consumers of packed reference words.

    The abstract machine emits every memory reference and every
    explicit synchronization event as one [int] in {!Ref_record}'s
    packing; sync words share it and {!Ref_record.is_sync_word} tells
    them apart.  Sinks compose ({!tee}, {!data_only}) and either
    aggregate ({!Areastats}, reading fields with shifts) or retain
    the words ({!Buffer_sink}) for the cache simulators.  Nothing on
    the emit path builds a {!Ref_record.t}. *)

type t = { emit_word : int -> unit }
(** [emit_word w] takes one packed word: an access or a sync event.
    The record is boxed on purpose: each sink is one closure of one
    argument, so a word costs one direct call (an [[@@unboxed]]
    record made [Buffer_sink.sink] and {!tee} partial applications,
    called through a currying trampoline). *)

val emit : t -> Ref_record.t -> unit
(** Pack an access and emit it. *)

val emit_sync : t -> Ref_record.sync -> unit
(** Pack a synchronization event (lock acquire/release, parcall
    publish, goal steal, join) and emit it.  Aggregate sinks count or
    skip these; {!Buffer_sink} retains them interleaved with the
    accesses so the happens-before checker can replay the ordering. *)

val null : t
(** Drops everything. *)

val tee : t -> t -> t
(** Feed two sinks. *)

val data_only : t -> t
(** Drop instruction fetches (Code-area reads); sync words pass. *)

(** In-memory packed trace buffer.

    The words sit in a directory of fixed chunks of 2^16 words.  Only
    the first chunk grows by doubling, from [capacity] up to the chunk
    size, so a small trace stays small; past it, growing allocates a
    new chunk and copies no retained word (the directory, an array of
    chunk pointers, doubles).

    Each append also counts the word in its slot
    ({!Ref_record.slots}), so a buffer knows its per-area reads and
    writes and its sync words without a second sink beside it
    ({!Areastats.of_buffer}).

    Domain-safety: a buffer is single-writer — all {!emit}s must
    happen on one domain — but once writing is done (and published by
    a happens-before edge such as [Domain.join] or the sweep engine's
    stage barrier) any number of domains may read it concurrently:
    {!length}/{!get}/{!iter}/{!iter_packed} only read the chunks, and
    readers never resize anything.  This is the generate-once /
    sweep-many contract [Engine.Dag] relies on.  Do not keep emitting
    while other domains read. *)
module Buffer_sink : sig
  type sink := t
  type t

  val create : ?capacity:int -> unit -> t
  val sink : t -> sink
  (** The sink that appends to this buffer. *)

  val push : t -> int -> unit
  (** Append a raw packed word (access or sync; see {!Ref_record}). *)

  val length : t -> int
  (** Total packed words retained, accesses plus sync events. *)

  val get : t -> int -> Ref_record.t
  (** Decode word [i] as an access.
      @raise Invalid_argument naming [Buffer_sink.get] if [i] is out
      of range or word [i] is a sync event. *)

  val iter : (Ref_record.t -> unit) -> t -> unit
  (** Visit the memory accesses only, skipping sync events. *)

  val iter_packed : (int -> unit) -> t -> unit
  (** Iterate raw packed words (hot path for the cache simulator);
      includes sync words -- test {!Ref_record.is_sync_word}. *)

  val iter_entries : (Ref_record.entry -> unit) -> t -> unit
  (** Visit accesses and sync events, decoded, in emission order. *)

  val n_syncs : t -> int
  (** How many of the retained words are sync events, found by
      scanning the words (not read off {!counts}). *)

  val counts : t -> int array
  (** A copy of the per-slot counts of the retained words: entry [s]
      is how many have [s] as their low six bits. *)
end

val buffer : Buffer_sink.t -> t
(** [buffer b] = [Buffer_sink.sink b]. *)
