(** Rendering for the traffic experiment: the BENCH_server.json
    artifact (written atomically) and a human-readable summary.
    Non-finite floats print as [null] (see {!Obs.Json.to_string}).

    The JSON carries the acceptance invariants as pre-evaluated
    booleans ([answers_equal], [hit_rate_ok], [warm_speedup_ok],
    [p99_finite], [mg1_ratio_ok]) so CI can grep instead of parsing
    floats. *)

val write_json : string -> Harness.outcome -> unit
val to_json : Harness.outcome -> Obs.Json.t
val pp : Format.formatter -> Harness.outcome -> unit

(** The availability experiment's artifact, BENCH_chaos.json: phases
    with per-outcome counts, snapshot/restore accounting, and the
    pre-evaluated gates [availability_ok], [warm_restart_ok], and
    [answers_equal]. *)

val write_chaos_json : string -> Harness.chaos -> unit
val chaos_to_json : Harness.chaos -> Obs.Json.t
val pp_chaos : Format.formatter -> Harness.chaos -> unit
