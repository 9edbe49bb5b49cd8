(** Benchmark execution: compile and run a benchmark sequentially
    (WAM) or in parallel (RAP-WAM), collecting statistics and the
    tagged reference trace.

    Traces are unified I+D (instruction fetches included, tagged
    Code); [data_refs] excludes fetches and matches the paper's
    Table 2 "references". *)

type result = {
  bench : Programs.benchmark;
  n_pes : int;  (** 0 = sequential WAM *)
  succeeded : bool;
  answer : Prolog.Term.t option;  (** the [answer_var] binding, if any *)
  instructions : int;
  data_refs : int;
  total_refs : int;  (** including instruction fetches *)
  rounds : int;  (** simulated time (parallel runs) *)
  inferences : int;
  parcalls : int;
  goals_stolen : int;
  cp_created : int;  (** choice points pushed (try) *)
  cp_elided : int;  (** certified chains entered shallow (shallow try) *)
  trail_elided : int;
      (** certified bindings made without a trail check (lib/bindan) *)
  deref_skipped : int;
      (** certified argument reads made without a deref (lib/bindan) *)
  idle_cycles : int;
  wait_cycles : int;
  trace : Trace.Sink.Buffer_sink.t;  (** packed references (I+D) *)
  area_stats : Trace.Areastats.t;
  opcode_freq : int array;
  heap_words : int;  (** high-water marks, summed over PEs *)
  local_words : int;
  control_words : int;
  trail_words : int;
}

val prepare :
  parallel:bool ->
  ?det:Wam.Compile.det_plan ->
  ?bind:Wam.Compile.bind_plan ->
  ?chains:Wam.Compile.chain_info list ref ->
  ?transform:(Prolog.Database.t -> Prolog.Database.t) ->
  Programs.benchmark ->
  Wam.Program.t
(** Compile the benchmark exactly as {!run_wam} / {!run_rapwam} would
    (compilation is deterministic, so static analyses built over this
    program line up with the code addresses in the run's trace).
    [det] enables choice-point elision; [bind] enables
    binding-certified specialization; [chains] logs the emitted try
    chains. *)

val run_wam :
  ?keep_trace:bool ->
  ?det:Wam.Compile.det_plan ->
  ?bind:Wam.Compile.bind_plan ->
  ?transform:(Prolog.Database.t -> Prolog.Database.t) ->
  Programs.benchmark ->
  result
(** Sequential WAM run (the paper's baseline).  [transform] rewrites
    the parsed database before compilation (e.g. re-annotation with
    granularity control). *)

val run_rapwam :
  ?keep_trace:bool -> ?det:Wam.Compile.det_plan ->
  ?bind:Wam.Compile.bind_plan ->
  ?steal:Rapwam.Sim.steal_policy -> ?allow_steal:bool ->
  ?transform:(Prolog.Database.t -> Prolog.Database.t) ->
  n_pes:int -> Programs.benchmark -> result

val answers_agree : result -> result -> bool
(** Same outcome and same [answer_var] binding. *)
