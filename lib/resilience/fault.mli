(** Deterministic fault injection for the trace/engine pipeline.

    A plan names a fixed set of faults, each pinned to a registered
    {e site} and an {e occurrence} (the Nth time that site is reached,
    counted under a lock so the plan is schedule-independent).  Every
    planned fault fires at most once.

    Kinds: [Truncate] (stop an I/O operation partway, leaving a torn
    artifact), [Bit_flip] (corrupt one bit of the written payload),
    [Eio] (the operation fails as if the device returned EIO),
    [Stall] (the site sleeps for the plan's [stall_s], long enough to
    trip a watchdog), [Crash] (the typed {!Injected} exception is treated
    as lethal and aborts the whole run, simulating a process kill). *)

type kind = Truncate | Bit_flip | Eio | Stall | Crash

val kinds : kind list
val kind_name : kind -> string

val sites : string list
(** The closed site registry: ["trace-write"] (per trace block),
    ["block-flush"] (trace-file finalization), ["cell-start"] (a sweep
    cell begins), ["sim-step"] (the cache simulation of a cell
    begins), ["journal-append"] (a checkpoint record is appended),
    ["snapshot-write"] (a memo snapshot is written to disk),
    ["breaker-probe"] (a half-open circuit breaker sends its trial
    request). *)

exception Injected of { site : string; kind : kind; occurrence : int }

type plan

val make : ?stall_s:float -> (string * kind * int) list -> plan
(** Explicit plan from (site, kind, occurrence) triples.
    @raise Invalid_argument on an unregistered site. *)

val of_spec : string -> (plan, string) result
(** Parse a CLI spec: comma-separated [SITE:KIND\@N] items (\@N
    defaults to 0), or [seed:N] for a deterministic plan of three
    triples drawn from the site/kind registry by a seeded LCG,
    optionally with [stall-s:SECONDS]. *)

val to_string : plan -> string

val fire : plan option -> string -> (kind * int) option
(** [fire plan site] advances [site]'s occurrence counter and returns
    the fault to apply now, if one was planned.  Sites ask through
    {!hit} or {!io}. *)

val hit : ?plan:plan -> string -> unit
(** Compute-site shorthand: [Stall] sleeps, any other planned kind
    raises {!Injected}. *)

val io : plan option -> string -> from:int -> string -> string * bool
(** The I/O fault model: [io plan site ~from s] is what the fault
    planned for this occurrence of [site] leaves of the bytes [s] of
    one write, and whether they are whole.  A [Stall] sleeps and keeps
    them, [Bit_flip] xors [0x10] into the byte halfway between [from]
    and the end, [Truncate] keeps the first half (not whole), and
    [Eio]/[Crash] raise {!Injected} before anything is written.  A
    frame writer applies it to one frame ({!Frame.output}), an atomic
    write to the whole completed file ({!Atomic_io.write_file}). *)
