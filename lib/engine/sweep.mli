(** The parallel sweep-execution engine.

    A sweep is a two-stage DAG over a {!grid}: stage 1 emulates each
    benchmark once per PE count (RAP-WAM via [Benchlib.Runner]) to
    produce its packed reference trace, and prepares that trace for
    the grid's line size inside the same job
    ({!Cachesim.Multi.prepare}: sync words dropped, line addresses
    interned once, per-area reads and writes counted).  After the
    barrier stage 2 fans the cache simulations out across the domain
    pool, one job per (trace, protocol): the job reads the shared
    prepared trace read-only and runs one simulator pass per
    allocation policy the grid needs, each pass serving every cache
    size still to compute ({!Cachesim.Multi.simulate_sizes}; a size
    list longer than {!Cachesim.Multi.max_sizes} runs as several
    passes).  A job returns one result per cell.  A generated buffer
    is garbage once its trace is prepared.

    Determinism rule: results are keyed and sorted by configuration
    ({!Results.sort}), and nothing host- or schedule-dependent enters
    them, so [--jobs 1] and [--jobs N] sweeps render byte-identical
    JSON/CSV.  Wall clocks live only in [wall_s] and the
    {!Report.stage} summaries. *)

type alloc_policy =
  | Default  (** the paper's per-point rule ({!Cachesim.Protocol.paper_allocate_policy}) *)
  | Allocate
  | No_allocate
  | Best  (** try both, keep the lower-traffic one ([simulate_best]) *)

type grid = {
  benchmarks : Benchlib.Programs.benchmark list;
  pe_counts : int list;  (** 0 = sequential WAM trace *)
  protocols : Cachesim.Protocol.kind list;
  cache_sizes : int list;  (** per-PE cache sizes, words *)
  line_words : int;
  alloc : alloc_policy;
}

val cells_of_grid : grid -> int
(** Cell count: benchmarks x PE counts x protocols x sizes.  Stage 2
    runs one job per (benchmark, PE count, protocol). *)

val check_grid : grid -> unit
(** Raise [Invalid_argument] if the cache simulator would refuse some
    cell of the grid: a (protocol, size, line) that
    {!Cachesim.Protocol.make} rejects, or more PEs than
    {!Cachesim.Multi.max_pes}.  {!run} calls it before it produces any
    trace. *)

type outcome = {
  cells : Results.cell list;  (** sorted by configuration *)
  stages : Report.stage list;
  areas : ((string * int) * (string * (int * int)) list) list;
      (** per-area read/write totals of every trace this sweep
          produced (generated or pre-supplied), keyed by (benchmark
          name, PE count) and sorted; one row per {!Trace.Area.all}
          entry as [(area slug, (reads, writes))].  Resumed cells
          whose trace generation was skipped have no entry.  Feed to
          {!Results.to_csv} to get per-area columns. *)
  wall_s : float;
  resumed_cells : int;  (** cells restored from the checkpoint journal *)
  journal_skipped : int;  (** corrupt journal frames passed over *)
}

val run :
  ?jobs:int ->
  ?echo:bool ->
  ?check:bool ->
  ?traces:((string * int) * Trace.Sink.Buffer_sink.t) list ->
  ?faults:Resilience.Fault.plan ->
  ?attempts:Job.attempts ->
  ?journal:string ->
  ?resume:bool ->
  grid ->
  outcome
(** [traces] pre-supplies packed traces for (benchmark name, PE
    count) keys, bypassing stage-1 emulation for those cells.
    [check] replays every trace (generated or pre-supplied) through
    {!Tracecheck} before simulation; violations fail the producing
    job and, through DAG fault propagation, every dependent cell.

    Fault tolerance: [faults] arms the ["cell-start"]/["sim-step"]
    injection sites, each hit once per stage-2 job (one (trace,
    protocol)), not once per cell (plus ["journal-append"], once per
    cell, if journaling); [attempts] is how every job is attempted
    (default: two attempts, no timeout; with a timeout, stalled jobs
    are killed and retried, see {!Job.run});
    [journal] checkpoints every cell of a completed job to an
    append-only fsync'd file, one frame per cell, and [resume] first
    loads every checksummed cell from that journal, skipping their
    recomputation — a job simulates only its sizes still missing, and
    the trace generation of any benchmark whose cells are all done is
    skipped — so the merged outcome reproduces the uninterrupted grid
    bit-for-bit.
    An injected [Crash] fault aborts the whole run with
    {!Resilience.Fault.Injected} (modelling a process kill); resuming
    afterwards completes the sweep. *)

val parallel_runs :
  ?jobs:int ->
  ?echo:bool ->
  (Benchlib.Programs.benchmark * int) list ->
  ((string * int) * (Benchlib.Runner.result, string) result) list
(** Full benchmark executions ([n_pes = 0] = sequential WAM) across
    the pool, keyed by (name, PE count) in input order; used to
    pre-warm the experiment harness's run cache. *)
