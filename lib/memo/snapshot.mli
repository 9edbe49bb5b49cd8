(** Durable snapshots of the answer table, for hot restarts.

    A snapshot is an 8-byte magic + version header followed by one
    CRC-checksummed {!Resilience.Journal} frame per table entry
    (sorted by canonical key text, so equal tables produce equal
    bytes).  {!save} commits the whole image atomically;
    {!restore} salvages exactly the frames whose CRCs verify — a torn
    or bit-flipped snapshot costs the damaged entries (they become
    ordinary misses), never the whole table. *)

val magic : string
val version : int

exception Snapshot_error of string

val save : ?plan:Resilience.Fault.plan -> Table.t -> string -> int
(** [save table path] writes the snapshot and returns the number of
    entries written.  [plan] arms the ["snapshot-write"] fault site:
    [Truncate] tears the image in half, [Bit_flip] corrupts one frame,
    [Stall] sleeps before writing, [Eio]/[Crash] raise with the
    destination untouched (the write is atomic).
    @raise Resilience.Fault.Injected for planned [Eio]/[Crash]. *)

type restore_stats = {
  entries : int;  (** entries restored into the table *)
  skipped : int;  (** frames dropped: bad CRC or unparsable payload *)
  torn : bool;  (** the image ended mid-frame *)
}

val restore : Table.t -> string -> restore_stats
(** Merge a snapshot's surviving entries into [table] (via
    variant-checking {!Table.insert}, so restoring over a live table
    is safe).
    @raise Snapshot_error if the file is not a memo snapshot (bad
    magic or version); frame-level damage never raises. *)
