(** Atomic file writes (tmp + fsync + rename).

    Either the destination keeps its previous contents or it holds the
    complete new payload — an interrupt or I/O error mid-write never
    leaves a torn file behind. *)

val write_file :
  ?fault:string * Fault.plan option -> string -> (out_channel -> unit) ->
  unit
(** [write_file path f] runs [f] on a temp file in [path]'s directory,
    fsyncs it, then renames it over [path].  On exception the temp
    file is removed and the exception re-raised.

    [fault = (site, plan)] applies the I/O fault model ({!Fault.io}) to
    the whole file once it is complete and before the rename: a
    truncate or bit flip commits the damaged file, [Eio]/[Crash] raise
    {!Fault.Injected} with the destination untouched. *)

val write_string : string -> string -> unit

val fsync_channel : out_channel -> unit
(** Flush the channel, then [Unix.fsync] its descriptor (errors from
    descriptors that cannot sync, e.g. pipes, are ignored). *)
