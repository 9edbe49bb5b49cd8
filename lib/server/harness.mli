(** The server traffic experiment: one deterministic request stream
    served three ways, cross-checked, and compared against the M/G/1
    queueing model.

    {ol
    {- {b memo_off}: a server without a table — every request runs.}
    {- {b cold}: a fresh server with an empty table — the zipfian mix
       populates it as it runs.}
    {- {b warm}: a second pass over the {e same} stream reusing the
       now-populated table.}}

    The acceptance claims ride on the phase comparison: the cold pass
    must already hit (skew means repeats), and the warm pass must beat
    the memo-off pass on throughput.  Answer correctness is checked by
    running every distinct pool query directly (no memo, no admission)
    and comparing canonical answer sets against the served responses.

    Fault plans apply to the {b cold} phase only, so the chaos run
    degrades in the phase CI watches. *)

type params = {
  mix : Traffic.mix;
  seed : int;
  zipf_s : float;
  requests : int;
  batch : int;  (** requests per {!Supervise.serve} call *)
  pes : int;
  workers : int;
  memo_words : int;
  memo_shards : int;
  threshold : int;
  max_queue : int;
  faults : Resilience.Fault.plan option;
  policy : Supervise.policy;  (** supervision for every phase *)
  snapshot : string option;  (** save the table here after the run *)
  restore : string option;  (** warm-start the table from here *)
}

val default_params : ?quick:bool -> unit -> params
(** Full: 2000 requests over [deriv:24,qsort:24,tak:12,matrix:12].
    Quick: 400 requests over a smaller pool. *)

val validate : params -> (unit, string) result
(** Typed validation of the numeric parameters: every count must be a
    strictly positive integer, [zipf_s] strictly positive, and the mix
    non-empty with positive weights.  [Error] carries every problem,
    ";"-joined.  The CLI's converters enforce the same rules on flags;
    this covers programmatic callers. *)

type phase = {
  ph_name : string;
  ph_requests : int;
  ph_wall_s : float;
  ph_qps : float;
  ph_latency : Metrics.summary;
  ph_service : Metrics.summary;
  ph_hit_rate : float;  (** memo hits / served, this phase *)
  ph_sup : Supervise.stats;  (** the phase's lane and outcome counts *)
  ph_availability : float;
}

type mg1_check = {
  q_lambda : float;  (** per-worker arrival rate fed to the model *)
  q_service_s : float;
  q_cs2 : float;
  q_capped : bool;  (** lambda capped at 95% utilization *)
  q_predicted_s : float;
  q_measured_s : float;
  q_ratio : float;  (** predicted / measured mean latency *)
}

type outcome = {
  o_params : params;
  o_pool_size : int;
  o_off : phase;
  o_cold : phase;
  o_warm : phase;
  o_memo : Memo.Table.totals;  (** cumulative, after the warm pass *)
  o_snapshot_entries : int option;  (** when [params.snapshot] is set *)
  o_answers_checked : int;
  o_answers_equal : bool;
  o_mismatches : (string * string * string) list;
      (** query, served, direct — empty when equal *)
  o_mg1 : mg1_check;
}

val run : ?progress:(string -> unit) -> params -> outcome
(** Every phase runs through a {!Supervise.t} built from
    [params.policy].  A planned [Crash] is contained to its request,
    or (at ["snapshot-write"]) loses the snapshot; it never aborts the
    run.  [params.restore] is read before any phase runs.
    @raise Invalid_argument when {!validate} rejects the params.
    @raise Memo.Snapshot.Snapshot_error when [params.restore] cannot
    be read or is not a memo snapshot. *)

(** Acceptance invariants, derived (also serialized into the JSON so
    CI can grep them). *)

val hit_rate_ok : outcome -> bool
(** Cold-phase hit rate >= 0.5. *)

val warm_speedup_ok : outcome -> bool
(** Warm throughput strictly above memo-off throughput. *)

val p99_finite : outcome -> bool
val mg1_ratio_ok : outcome -> bool
(** Finite and > 0. *)

(** {2 The availability experiment}

    One stream served under a fault plan with full supervision, then
    warm, then snapshot → kill → restore → serve again. *)

type chaos = {
  c_params : params;
  c_pool_size : int;
  c_chaos : phase;  (** faults armed, policy in force *)
  c_warm : phase;  (** same table, faults spent — pre-restart baseline *)
  c_restart : phase;  (** fresh table warm-started from the snapshot *)
  c_snapshot_entries : int;
  c_restore : Memo.Snapshot.restore_stats;
  c_hit_delta : float;  (** |warm hit rate − restart hit rate| *)
  c_answers_checked : int;
  c_answers_equal : bool;
  c_mismatches : (string * string * string) list;
}

val run_chaos : ?progress:(string -> unit) -> params -> chaos
(** [params.snapshot] is where the restart snapshot lands; defaults to a temp file that is removed after the
    restore.  [params.restore], when set, warm-starts the {e chaos}
    phase's table.  Contains faults and raises like {!run}.
    @raise Invalid_argument when {!validate} rejects the params. *)

val availability_ok : chaos -> bool
(** Chaos-phase availability >= 0.95. *)

val warm_restart_ok : chaos -> bool
(** Restart hit rate within 5 points of the pre-restart warm rate. *)

val chaos_answers_ok : chaos -> bool
