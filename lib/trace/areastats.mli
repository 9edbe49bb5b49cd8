(** Aggregate per-area reference statistics: read and write counts by
    area, and the sync words seen.  A count is one increment per word,
    in the word's slot ({!Ref_record.slots}); every query sums slots. *)

type t

val create : unit -> t

val sink : t -> Sink.t
(** A sink that records into [t]. *)

val of_buffer : Sink.Buffer_sink.t -> t
(** The counts of the words a buffer holds, which it kept as it
    appended them: a run traced into a buffer needs no second sink
    beside it for its statistics. *)

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

val pp : Format.formatter -> t -> unit
