(** The multiprocessor coherent-cache simulation: one cache per PE, a
    shared bus, and a line directory used to decide sharing.
    Processes packed RAP-WAM traces and produces traffic statistics
    per protocol (paper, §3.2).

    Data layout: the simulator names a line by a dense id; the
    directory and the per-PE LRU caches ({!Cache}) are flat arrays
    indexed by that id, so a reference does only array indexing and
    never allocates.  The directory keeps one bit per PE in an int,
    hence {!max_pes}.

    Two paths share one read and one write routine.  A {!prepared}
    trace is interned once per (trace, line size): one int per access
    holding (line id, PE, area, op), sync words dropped, its line
    count and largest PE recorded.  The simulations over it size
    every array from that line count and check the PE bound once per
    trace; {!simulate} and {!simulate_best} prepare their buffer and
    run this path.  The online path, {!reference}, interns, checks
    the PE and grows its arrays per reference.

    Domain-safety: all simulator state (caches, directory, counters)
    lives in the simulation that owns it — there are no module-level
    mutables — so each simulation is confined to the domain that runs
    it.  A prepared trace is never mutated after {!prepare} returns,
    so independent simulations over the same prepared trace (or the
    same trace buffer) can run on separate domains concurrently.  That
    is how [Engine.Sweep] fans a grid out.  A single [t] must not be
    shared across domains. *)

val max_pes : int
(** 62: the most PEs (caches) one simulation can have. *)

(** One fully associative cache with perfect LRU replacement (the
    paper's cache model), O(1) per operation and allocation-free.

    Lines are named by small non-negative int keys (the dense line
    ids the simulator interns) and sit in slots; a slot is valid until
    its line is evicted or invalidated. *)
module Cache : sig
  type t

  val create : lines:int -> t

  val find : t -> int -> int
  (** The slot of a resident key, or -1 (does not update recency). *)

  val touch : t -> int -> unit
  (** Mark the line in a slot most-recently-used. *)

  val dirty : t -> int -> bool
  val set_dirty : t -> int -> bool -> unit

  val insert : t -> int -> dirty:bool -> int
  (** Insert a non-resident key; returns the key it evicted when the
      cache was full, else -1.  The victim's dirty flag is then
      {!evicted_dirty}. *)

  val evicted_dirty : t -> bool
  (** Whether the line the last evicting {!insert} dropped was dirty. *)

  val invalidate : t -> int -> bool
  (** Drop a line (coherency); [true] if it was resident.  Its slot is
      reused before any later eviction. *)

  val resident : t -> int -> bool
  val occupancy : t -> int
end

(** {1 Prepared traces} *)

type prepared

val prepare : line_words:int -> Trace.Sink.Buffer_sink.t -> prepared
(** Intern a packed trace for one line size, in one pass.
    @raise Invalid_argument unless [line_words] is a power of two. *)

val accesses : prepared -> int
(** The trace's memory accesses (its sync words are dropped). *)

val access : prepared -> int -> Trace.Ref_record.t
(** Access [i] in trace order, with its dense line id as [addr]. *)

val area_counts : prepared -> Trace.Area.t -> int * int
(** The trace's (reads, writes) in an area. *)

val simulate_prepared :
  ?write_allocate:bool -> kind:Protocol.kind -> cache_words:int ->
  n_pes:int -> prepared -> Metrics.t
(** One (protocol, size) point at the trace's line size.
    [write_allocate] defaults to {!Protocol.paper_allocate_policy}.
    @raise Invalid_argument if an access's PE has no cache. *)

val simulate_best_prepared :
  kind:Protocol.kind -> cache_words:int -> n_pes:int -> prepared ->
  Metrics.t * bool
(** Both allocation policies; the lower-traffic one and whether it
    allocates. *)

(** {1 Packed trace buffers} *)

val simulate :
  ?line_words:int -> ?write_allocate:bool -> ?locality_override:bool ->
  kind:Protocol.kind -> cache_words:int -> n_pes:int ->
  Trace.Sink.Buffer_sink.t -> Metrics.t
(** One (protocol, size) point over a trace.  [write_allocate]
    defaults to {!Protocol.paper_allocate_policy};
    [locality_override] forces every reference's hybrid tag to Global
    ([Some true]) or Local ([Some false]), for the tag ablation. *)

val simulate_best :
  ?line_words:int -> kind:Protocol.kind ->
  cache_words:int -> n_pes:int -> Trace.Sink.Buffer_sink.t ->
  Metrics.t * bool
(** Try both allocation policies and keep the lower-traffic one (the
    paper's per-point selection); returns the winning policy too.
    The trace is prepared once for both. *)

(** {1 The online path} *)

type t

val create : ?locality_override:bool -> n_pes:int -> Protocol.config -> t
(** [locality_override] as for {!simulate}. *)

val reference : t -> int -> unit
(** Process one packed word ({!Trace.Ref_record}'s layout), reading
    its fields with shifts; a sync word is skipped. *)

val stats : t -> Metrics.t
