(** The batch server: admission, lanes and availability discipline
    around {!Serve}'s per-request primitives.

    A batch is admitted in request order on the accepting thread.
    Each admission passes the ["cell-start"] fault site and then takes
    one of three lanes:

    {ul
    {- memo hits answer immediately from the table;}
    {- misses whose {!Costan.Analyze.verdict} is [Small] (statically
       cheaper than the spawn/queue overhead) run {e inline} on the
       accepting thread;}
    {- everything else ([Keep]/[Guard]) is queued and fanned out over
       an {!Engine.Pool} of worker domains, in waves of at most
       [max_queue] (queue-depth backpressure: a deeper backlog waits
       for the current wave to drain).  A worker consults the table
       again first, so a duplicate an earlier request has published
       becomes a hit.}}

    Every execution passes the ["sim-step"] fault site.  Answer sets
    are published to the table from whichever domain finished first;
    variant-checking dedupes the race.  The lanes run under a
    {!policy}:

    {ul
    {- {e crash containment} — an injected (or real) crash, at
       admission, at a breaker probe or in a worker, poisons only its
       own request, which comes back [Crashed]; the pool is respawned
       for the remainder of the wave.  A batch never raises;}
    {- {e deadlines and retries} — each execution runs under
       {!Engine.Job}'s attempt loop ([retries] extra attempts with
       deterministic exponential backoff, each bounded by
       [deadline_s] when set), so a transient fault heals into
       [Retried n] and a stall becomes a typed [Timeout] instead of a
       wedged pool;}
    {- {e circuit breaking} — per-predicate closed/open/half-open
       circuits on a deterministic clock (pooled admissions, not wall
       time): a predicate whose recent pooled runs keep failing is
       fast-failed for [cooldown] admissions, then probed through the
       ["breaker-probe"] fault site;}
    {- {e load shedding} — a pooled backlog over [shed_watermark] is
       refused cheapest-to-refuse first: [Keep] verdicts (statically
       unbounded cost) before [Guard], later arrivals first.  Memo
       hits and Small-inline work are never shed.}}

    {!stats} counts every response by lane and by {!outcome}.  All
    supervision state lives on the accepting thread; worker domains
    share nothing but the memo table and the locked pools of machines
    and query workspaces ({!Serve}). *)

type outcome =
  | Ok  (** answered on the first attempt (includes run errors) *)
  | Retried of int  (** answered after this many extra attempts *)
  | Timeout  (** every attempt exceeded the deadline *)
  | Shed  (** refused: backlog over watermark, or circuit open *)
  | Crashed  (** a worker crash was contained to this request *)
  | Faulted  (** injected fault persisted through all attempts *)

val outcome_name : outcome -> string
val available : outcome -> bool
(** [Ok] and [Retried] count toward availability; everything else
    against it. *)

type response = {
  sv : Serve.response;
  sv_outcome : outcome;
  sv_attempts : int;  (** 0 when nothing ran (hit, shed, refusal) *)
}

type breaker_cfg = {
  window : int;  (** recent pooled outcomes kept per predicate *)
  trip_ratio : float;  (** failure fraction that opens the circuit *)
  min_samples : int;  (** don't trip on fewer outcomes than this *)
  cooldown : int;  (** admissions an open circuit waits before probing *)
}

val breaker_default : breaker_cfg
(** window 8, trip 0.5, min 4, cooldown 64. *)

type policy = {
  deadline_s : float option;  (** per-attempt deadline; [None] = none *)
  retries : int;  (** extra attempts for transient faults *)
  breaker : breaker_cfg option;
  shed_watermark : int option;  (** max pooled backlog; [None] = no shed *)
}

val default_policy : policy
(** Everything off: no deadline, no retries, no breaker, no shedding.
    Crashes are contained under every policy. *)

val policy :
  ?deadline_s:float -> ?retries:int -> ?breaker:breaker_cfg ->
  ?shed_watermark:int -> unit -> policy
(** @raise Invalid_argument on a non-positive deadline or watermark,
    or negative retries. *)

type t

val create : ?policy:policy -> Serve.t -> t
(** Serve batches on this server, with every counter at zero. *)

val server : t -> Serve.t

val serve : t -> Serve.request list -> response list
(** Serve one batch; responses in request order.  A planned [Crash]
    comes back as one [Crashed] response. *)

type stats = {
  served : int;
  ok : int;  (** available responses (includes retried) *)
  retried : int;  (** requests that healed after >= 1 retry *)
  timeouts : int;
  shed : int;  (** watermark sheds + breaker fast-fails *)
  crashed : int;
  faulted : int;
  errors : int;  (** well-formed run errors (available, not faults) *)
  hits : int;
  inline_ : int;
  pooled : int;
  waves : int;
  max_depth : int;  (** deepest pooled backlog after breaker, pre-shed *)
  breaker_opens : int;
  breaker_fastfails : int;
  pool_respawns : int;  (** extra pools spawned after a poisoned wave *)
}

val stats : t -> stats

val availability : stats -> float
(** ok / served; 1.0 when idle. *)

val latencies : t -> Metrics.t
val services : t -> Metrics.t
