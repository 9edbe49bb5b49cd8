(** Trace sinks: consumers of memory-reference records.

    The abstract machine emits every reference to a sink; sinks
    compose ({!tee}, {!filter}) and either aggregate ({!Areastats}) or
    retain the packed trace ({!Buffer_sink}) for the cache
    simulators. *)

type t = {
  emit : Ref_record.t -> unit;
  emit_sync : Ref_record.sync -> unit;
}

val emit : t -> Ref_record.t -> unit

val emit_sync : t -> Ref_record.sync -> unit
(** Record an explicit synchronization event (lock acquire/release,
    parcall publish, goal steal, join).  Aggregate sinks ignore these;
    {!Buffer_sink} retains them interleaved with the accesses so the
    happens-before checker can replay the ordering. *)

val null : t
(** Drops everything. *)

val tee : t -> t -> t
(** Feed two sinks. *)

val data_only : t -> t
(** Drop instruction fetches (Code-area reads). *)

(** In-memory packed trace buffer.

    Domain-safety: a buffer is single-writer — all {!emit}s must
    happen on one domain — but once writing is done (and published by
    a happens-before edge such as [Domain.join] or the sweep engine's
    stage barrier) any number of domains may read it concurrently:
    {!length}/{!get}/{!iter}/{!iter_packed} only read the backing
    array, and the array is never resized by readers.  This is the
    generate-once / sweep-many contract [Engine.Dag] relies on.  Do
    not {!clear} or keep emitting while other domains read. *)
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
  (** Decode word [i] as an access (raises if it is a sync event). *)

  val iter : (Ref_record.t -> unit) -> t -> unit
  (** Visit the memory accesses only, skipping sync events. *)

  val iter_packed : (int -> unit) -> t -> unit
  (** Iterate raw packed words (hot path for the cache simulator);
      includes sync words -- test {!Ref_record.is_sync_word}. *)

  val iter_entries : (Ref_record.entry -> unit) -> t -> unit
  (** Visit accesses and sync events, decoded, in emission order. *)

  val n_syncs : t -> int
  (** How many of the retained words are sync events. *)
end

val buffer : Buffer_sink.t -> t
(** [buffer b] = [Buffer_sink.sink b]. *)
