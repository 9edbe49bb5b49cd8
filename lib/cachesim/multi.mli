(** The multiprocessor coherent-cache simulation: one cache per PE, a
    shared bus, and a line directory used to decide sharing.
    Processes packed RAP-WAM traces and produces traffic statistics
    per protocol (paper, §3.2).

    Data layout: each line address is interned as a dense id on first
    sight (an open-addressing table with linear probing); the
    directory and the per-PE LRU caches ({!Cache}) are flat arrays
    indexed by that id, so a reference does only array indexing and
    never allocates.  The directory keeps one bit per PE in an int,
    hence {!max_pes}.

    Domain-safety: all simulator state (caches, directory, counters)
    lives in the [t] made by {!create} — there are no module-level
    mutables — so each simulation is confined to the domain that
    created it, and independent simulations over the same (read-only)
    trace buffer can run on separate domains concurrently.  That is
    how [Engine.Sweep] fans a grid out.  A single [t] must not be
    shared across domains. *)

type t

val max_pes : int
(** 62: the most PEs (caches) one simulation can have. *)

val create : ?locality_override:bool -> n_pes:int -> Protocol.config -> t
(** [locality_override] forces every reference's hybrid tag to Global
    ([Some true]) or Local ([Some false]); used by the tag ablation. *)

val reference : t -> Trace.Ref_record.t -> unit
(** Process one reference. *)

val run_trace : t -> Trace.Sink.Buffer_sink.t -> unit
(** Process a whole packed trace buffer (hot path). *)

val stats : t -> Metrics.t

val simulate :
  ?line_words:int -> ?write_allocate:bool -> ?locality_override:bool ->
  kind:Protocol.kind -> cache_words:int -> n_pes:int ->
  Trace.Sink.Buffer_sink.t -> Metrics.t
(** One (protocol, size) point over a trace.  [write_allocate]
    defaults to {!Protocol.paper_allocate_policy}. *)

val simulate_best :
  ?line_words:int -> kind:Protocol.kind ->
  cache_words:int -> n_pes:int -> Trace.Sink.Buffer_sink.t ->
  Metrics.t * bool
(** Try both allocation policies and keep the lower-traffic one (the
    paper's per-point selection); returns the winning policy too. *)
