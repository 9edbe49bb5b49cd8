(** Deterministic sweep results.

    Every cell is keyed by its full configuration; {!sort} orders
    cells by that key alone, and the JSON/CSV renderers contain no
    timing, ordering, or host information — which is why a parallel
    sweep and a [--jobs 1] sweep produce byte-identical artifacts. *)

type config = {
  bench : string;
  n_pes : int;
  protocol : Cachesim.Protocol.kind;
  line_words : int;
  cache_words : int;
}

type cell = {
  config : config;
  metrics : (Cachesim.Metrics.t, string) result;
      (** [Error] = the cell's job failed after retry (or its trace
          generation failed); the sweep still completes. *)
}

val config_key : config -> string
(** Human-readable cell key, e.g. ["qsort/8pe/hybrid/l4/c1024"]. *)

val sort : cell list -> cell list

val encode_cell : string -> Cachesim.Metrics.t -> string
(** Checkpoint-journal payload for one completed cell: the config key
    plus the ten integer counters (ratios are derived, so a resumed
    sweep renders bit-identical JSON/CSV). *)

val decode_cell : string -> (string * Cachesim.Metrics.t) option
(** Inverse of {!encode_cell}; [None] on a malformed payload. *)

val to_json : cell list -> Obs.Json.t

val to_csv :
  areas:((string * int) * (string * (int * int)) list) list ->
  cell list ->
  string
(** One row per cell.  After the counters, every {!Trace.Area.all}
    entry adds an [<area>_reads,<area>_writes] column pair filled from
    [areas] (see [Sweep.outcome.areas]) for the cell's (bench, PEs)
    trace — the same numbers for every cache configuration sharing a
    trace — and left empty for cells whose trace the table does not
    cover (e.g. journal-resumed). *)
