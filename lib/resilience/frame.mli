(** The codec of every durable file: trace files ([Trace.Tracefile]),
    the sweep checkpoint journal ({!Journal}) and memo snapshots
    ([Memo.Snapshot]).

    A file is a header ({!header}: magic + u64 version) followed by
    frames [marker | u32 length | u32 CRC-32(payload) | payload].  A
    reader trusts exactly the frames whose length is plausible, whose
    CRC verifies and whose payload decodes, and resynchronizes on the
    next marker past anything else. *)

type layout = private {
  marker : string;  (** opens every frame *)
  unit_bytes : int;  (** what the length field counts *)
  max_units : int;  (** the longest plausible frame, in length units *)
}

val journal : layout
(** Marker ["RWJF"], length in bytes, at most 1 MiB: journals and memo
    snapshots. *)

val trace : layout
(** Marker ["RWTRBLK\xa5"], length in 8-byte words, at most 1024
    words: trace files. *)

val header : magic:string -> version:int -> string
(** [magic] followed by [version] as a little-endian u64. *)

val read :
  magic:string -> version:int -> format:string -> string ->
  (string * int, string) result
(** [read ~magic ~version ~format path] is the whole file and the
    offset just past its {!header}, or one line naming [path] that says
    why not: the file cannot be read, is "not a RAP-WAM [format]", or
    has an "unsupported [format] version". *)

val encode : layout -> string -> string
(** One frame around a payload.
    @raise Invalid_argument if the payload does not fit the layout. *)

val output :
  fault:string * Fault.plan option -> layout -> out_channel -> string ->
  bool
(** Write one {!encode}d frame through the I/O fault model
    ({!Fault.io}) of [fault = (site, plan)]: a bit flip lands in the
    payload after the CRC is taken.  Returns [false] when an injected
    truncate wrote only half the frame. *)

type 'a scan = {
  frames : 'a list;  (** decoded payloads of the frames kept, in order *)
  skipped : int;  (** damaged frames passed over by resync *)
  torn : bool;  (** the data ended inside a damaged frame *)
  first_error : (int * string) option;
      (** byte offset and reason of the first anomaly *)
  clean_prefix : int;
      (** frames kept before the first anomaly (all of them if none) *)
}

val scan :
  layout -> decode:(string -> int -> int -> 'a option) -> pos:int ->
  string -> 'a scan
(** [scan l ~decode ~pos s] walks the frames of [s] from [pos].
    [decode s off len] turns the payload bytes [s.[off .. off+len-1]]
    of a frame whose CRC verified into a value, or [None] to reject
    the frame.  Never raises on damage. *)
