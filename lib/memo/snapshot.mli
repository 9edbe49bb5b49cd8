(** Durable snapshots of the answer table, for hot restarts.

    A snapshot is the {!Resilience.Frame} header (magic + version)
    followed by one {!Resilience.Frame.journal} frame per table entry
    (sorted by canonical key text, so equal tables produce equal
    bytes).  {!save} commits the whole image atomically;
    {!restore} salvages exactly the frames whose CRCs verify and whose
    payloads parse — a torn or bit-flipped snapshot costs the damaged
    entries (they become ordinary misses), never the whole table. *)

exception Snapshot_error of string
(** The file cannot be read, or is not a memo snapshot; names the
    file. *)

val save : ?plan:Resilience.Fault.plan -> Table.t -> string -> int
(** [save table path] writes the snapshot and returns the number of
    entries written.  [plan] arms the ["snapshot-write"] fault site,
    which fires on the complete image before it is committed:
    [Truncate] tears it in half, [Bit_flip] corrupts one frame,
    [Stall] sleeps, [Eio]/[Crash] raise with the destination untouched
    (the write is atomic).
    @raise Resilience.Fault.Injected for planned [Eio]/[Crash]. *)

type restore_stats = {
  entries : int;  (** entries restored into the table *)
  skipped : int;  (** frames dropped by resync: bad CRC or unparsable payload *)
  torn : bool;  (** the image ended mid-frame *)
}

val restore : Table.t -> string -> restore_stats
(** Merge a snapshot's surviving entries into [table] (via
    variant-checking {!Table.insert}, so restoring over a live table
    is safe).
    @raise Snapshot_error if the file cannot be read or is not a memo
    snapshot (bad magic or version); frame-level damage never
    raises. *)
