(** The multiprocessor coherent-cache simulation: one recency stack per
    PE, a shared bus, and a line directory used to decide sharing.
    Processes packed RAP-WAM traces and produces traffic statistics
    per protocol (paper, §3.2), for one cache size or for every size
    of a list in one pass ({!simulate_sizes}).

    One pass serves several sizes because fully associative LRU has
    the inclusion property: each PE keeps one recency list of the
    lines it holds at any size, and a line's {e level} there (the
    smallest size that holds it) says at which sizes a reference hits.
    A pass over one size is the degenerate case, a plain LRU; it is
    what {!simulate}, {!simulate_best} and the online path run.

    Data layout: the simulator names a line by a dense id; the
    directory and the per-PE stacks ({!Stack}) are flat arrays
    indexed by that id, so a reference does only array indexing and
    never allocates.  The directory keeps one bit per PE in an int,
    hence {!max_pes}; a slot keeps one dirty bit per size, hence
    {!max_sizes}.

    Two paths share one read and one write routine.  A {!prepared}
    trace is interned once per (trace, line size): one int per access
    holding (line id, PE, area, op), sync words dropped, its line
    count and largest PE recorded.  The passes over it size every
    array from that line count and check the PE bound once per pass;
    {!simulate} and {!simulate_best} prepare their buffer and run this
    path.  The online path, {!reference}, interns, checks the PE and
    grows its arrays per reference.

    Domain-safety: all simulator state (stacks, directory, counters)
    lives in the simulation that owns it — there are no module-level
    mutables — so each simulation is confined to the domain that runs
    it.  A prepared trace is never mutated after {!prepare} returns,
    so independent simulations over the same prepared trace (or the
    same trace buffer) can run on separate domains concurrently.  That
    is how [Engine.Sweep] fans a grid out.  A single [t] must not be
    shared across domains. *)

val max_pes : int
(** 62: the most PEs (caches) one simulation can have. *)

val max_sizes : int
(** 62: the most distinct sizes one pass can serve. *)

(** One PE's recency stack over the sizes of a pass (the paper's
    cache model: fully associative, perfect LRU at every size), O(1)
    amortized per operation and allocation-free.

    Lines are named by small non-negative int keys (the dense line
    ids the simulator interns).  Sizes are numbered 0 .. K-1 in
    ascending order; a line's level is the smallest size that holds
    it, K if none.  With one size it is a plain LRU cache. *)
module Stack : sig
  type t

  val create : lines:int list -> keys:int -> t
  (** A stack for the keys [0 .. keys-1] whose sizes hold [lines]
      lines each.
      @raise Invalid_argument unless [lines] is ascending, positive
      and at most {!max_sizes} long. *)

  val find : t -> int -> int
  (** A word naming a resident key's slot and level, or -1 (does not
      update recency). *)

  val level : t -> int -> int
  (** The key's level: it is resident at exactly the sizes at or
      above it. *)

  val touch : t -> int -> unit
  (** Make the line whose word {!find} returned the most recently used
      at every size that holds it; its level does not change. *)

  val insert : t -> int -> dirty:bool -> int
  (** Make a key resident at every size, most recently used.  Each
      size below its level, smallest first, takes a free slot or, when
      full, evicts its least recently used line, whose level rises by
      one.  [dirty] sets the key's dirty bit at those sizes.  Returns
      the key that left the stack (evicted at the largest size), or -1;
      {!evicted_dirty} then names the sizes whose victim was dirty. *)

  val evicted_dirty : t -> int
  (** The mask (bit k: size k) of the sizes at which the last
      {!insert} evicted a dirty line. *)

  val invalidate : t -> int -> bool
  (** Drop a line at every size (coherency); [true] if it was
      resident.  Its slot is reused before any later eviction. *)

  val occupancy : t -> int -> int
  (** Lines resident at size [k]. *)
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

val simulate_sizes :
  ?locality_override:bool -> write_allocate:bool -> kind:Protocol.kind ->
  cache_words:int list -> n_pes:int -> prepared -> Metrics.t list
(** One pass at every size of [cache_words] (any order, duplicates
    allowed), at the trace's line size: one [Metrics.t] per element, in
    order, each equal to what {!simulate_prepared} gives at that size.
    [locality_override] as for {!simulate}.
    @raise Invalid_argument on more than {!max_sizes} distinct sizes, on
    a size {!Protocol.make} refuses, or if an access's PE has no cache. *)

val simulate_prepared :
  ?write_allocate:bool -> kind:Protocol.kind -> cache_words:int ->
  n_pes:int -> prepared -> Metrics.t
(** One (protocol, size) point at the trace's line size: a pass over
    one size.  [write_allocate] defaults to
    {!Protocol.paper_allocate_policy}.
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
