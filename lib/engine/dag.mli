(** The engine's two-stage DAG.

    Stage 1 runs every producer once (deduplicated by key) across the
    pool; the pool join is the barrier after which the produced
    artifacts are shared {e read-only}.  Stage 2 then fans the
    consumers out, each looking up the one artifact it depends on.

    Fault containment: every job runs under {!Job.run} (retried once,
    exceptions captured), and a failed producer poisons exactly its
    dependents — each dependent yields an [Error] recording the
    producer's failure, and the rest of the sweep is unaffected. *)

type ('a, 'b) t = {
  produce : (string * (unit -> 'a)) list;  (** artifact key, generator *)
  consume : (string * string * ('a -> 'b)) list;
      (** cell key, artifact key it reads, consumer *)
}

val run :
  ?jobs:int ->
  ?echo:bool ->
  ?watchdog:Job.watchdog ->
  ?on_consumed:('b Job.completed -> unit) ->
  ?stage_labels:string * string ->
  ('a, 'b) t ->
  'b Job.completed array * Report.stage list
(** Returns the stage-2 cells in the same order as [consume], plus
    the two stage summaries.  Determinism: the cell array's order and
    contents are independent of [jobs].

    Every job gets one retry.  [watchdog] bounds every job attempt
    (stalled cells are killed and retried, see {!Job.run}); [on_consumed] fires once per completed
    stage-2 cell under a single mutex — the sweep's checkpoint journal
    hangs off it. *)
