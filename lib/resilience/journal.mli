(** Append-only checkpoint journal.

    One {!Frame.journal} frame per completed sweep cell, fsync'd on
    every append: a crash loses at most the in-flight cell, and
    {!replay} trusts exactly the frames whose CRCs verify — a torn
    tail or a corrupt frame in the middle is skipped (the frame marker
    makes the stream self-synchronizing) and those cells are simply
    recomputed. *)

exception Journal_error of string
(** The file cannot be read, or is not a journal; names the file. *)

type writer

val create : ?plan:Fault.plan -> ?append:bool -> string -> writer
(** Open a journal for writing.  [append] (resume mode) keeps existing
    frames; otherwise the file is truncated and a fresh header
    written.  [plan] arms the ["journal-append"] fault site. *)

val append : writer -> string -> unit
(** Append one payload as a checksummed frame and fsync.  No-op on a
    writer that has been {!close}d.
    @raise Fault.Injected for planned [Eio]/[Crash] faults.
    @raise Invalid_argument if the payload exceeds 1 MiB. *)

val close : writer -> unit

type replay = {
  entries : string list;  (** payloads of the frames that verified *)
  skipped_frames : int;  (** corrupt frames passed over by resync *)
  torn_tail : bool;  (** the file ended mid-frame *)
}

val replay : string -> replay
(** Read a journal file: check magic and version, then scan its
    frames.
    @raise Journal_error if the file cannot be read or is not a
    journal (bad magic or version); frame-level damage never
    raises. *)
