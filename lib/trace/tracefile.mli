(** Binary trace files: persist a packed reference trace so it can be
    generated once and swept by the cache simulators many times.

    Version 3, the only version read, carries the packed words in
    {!Resilience.Frame.trace} frames ("blocks": marker + word count +
    CRC-32 + payload) after the shared {!Resilience.Frame} header and a
    record count, so corruption and truncation are detected — and, via
    {!read_salvage}, survived — instead of being decoded as garbage.
    {!write} is atomic: tmp + fsync + rename. *)

exception Bad_file of string
(** Not a trace file at all: unreadable, wrong magic, unsupported
    version.  The message names the file. *)

exception Trace_error of { offset : int; reason : string }
(** The file is a trace but its contents are damaged: truncation,
    checksum mismatch, undecodable record.  [offset] is the byte
    position of the anomaly. *)

val magic : string

val block_marker : string
val block_words : int
(** Framing constants: at most [block_words] packed words per
    checksummed block, each block opening with [block_marker]. *)

val write : ?faults:Resilience.Fault.plan -> string -> Sink.Buffer_sink.t -> unit
(** Atomic write.  [faults] arms the ["trace-write"] (per-block) and
    ["block-flush"] (pre-rename) sites: injected truncate/bit-flip
    faults commit a deliberately damaged file (the disaster being
    modelled), EIO/crash abort leaving the destination untouched. *)

val read : string -> Sink.Buffer_sink.t
(** Strict read.
    @raise Bad_file if this is not a trace file.
    @raise Trace_error at the first corruption or truncation. *)

type damage = {
  header_records : int;  (** the record count the header promised *)
  salvaged : int;  (** records recovered *)
  prefix_records : int;
      (** records before the first anomaly: this prefix is exactly the
          original trace's prefix, safe to feed to the trace checker *)
  skipped_blocks : int;  (** damaged blocks passed over by resync *)
  truncated : bool;
  first_error : (int * string) option;  (** byte offset and reason *)
}

val read_salvage : string -> Sink.Buffer_sink.t * damage
(** Best-effort read: keep every block whose checksum verifies,
    resynchronize past damage, and report exactly what was lost.
    @raise Bad_file if this is not a trace file (nothing to salvage). *)

val lost : damage -> int
val clean : damage -> bool
val pp_damage : Format.formatter -> damage -> unit
