(* Benchmark execution: compile and run a benchmark sequentially (WAM)
   or in parallel (RAP-WAM), collecting the statistics and the tagged
   data-reference trace the experiments need.

   Traces are unified I+D: they include instruction fetches (tagged
   Code, read-only/shared), which is how the paper's ~2.55
   references/instruction and its tiny (64-word) cache points read;
   [data_refs] (the paper's Table 2 "references") excludes them. *)

type result = {
  bench : Programs.benchmark;
  n_pes : int; (* 0 = sequential WAM *)
  succeeded : bool;
  answer : Prolog.Term.t option; (* the [answer_var] binding, if any *)
  instructions : int;
  data_refs : int;
  total_refs : int; (* including instruction fetches *)
  rounds : int; (* simulated time (parallel runs) *)
  inferences : int;
  parcalls : int;
  goals_stolen : int;
  cp_created : int; (* choice points pushed (try) *)
  cp_elided : int; (* certified chains entered shallow (shallow try) *)
  trail_elided : int; (* certified bindings made without a trail check *)
  deref_skipped : int; (* certified argument reads made without a deref *)
  idle_cycles : int;
  wait_cycles : int;
  trace : Trace.Sink.Buffer_sink.t; (* packed references (I+D) *)
  area_stats : Trace.Areastats.t;
  opcode_freq : int array;
  heap_words : int; (* high-water marks, summed over PEs *)
  local_words : int;
  control_words : int;
  trail_words : int;
}

let collectors ~keep_trace =
  let stats = Trace.Areastats.create ~pe_of_addr:Wam.Layout.pe_of_addr () in
  let buf = Trace.Sink.Buffer_sink.create ~capacity:(1 lsl 16) () in
  let sink =
    if keep_trace then
      Trace.Sink.tee (Trace.Areastats.sink stats) (Trace.Sink.buffer buf)
    else Trace.Areastats.sink stats
  in
  (stats, buf, sink)

let answer_of var result =
  match result with
  | Wam.Seq.Failure -> (false, None)
  | Wam.Seq.Success bindings -> (true, List.assoc_opt var bindings)

let sum_high_water m f =
  Array.fold_left (fun acc w -> acc + f w) 0 m.Wam.Machine.workers

let of_machine bench ~n_pes ~succeeded ~answer ~rounds m stats buf =
  {
    bench;
    n_pes;
    succeeded;
    answer;
    instructions = Wam.Machine.total_instr m;
    data_refs = Trace.Areastats.data_refs stats;
    total_refs = Trace.Areastats.total stats;
    rounds;
    inferences = m.Wam.Machine.inferences;
    parcalls = m.Wam.Machine.parcalls;
    goals_stolen = m.Wam.Machine.goals_stolen;
    cp_created = m.Wam.Machine.cp_created;
    cp_elided = m.Wam.Machine.cp_elided;
    trail_elided = m.Wam.Machine.trail_elided;
    deref_skipped = m.Wam.Machine.deref_skipped;
    idle_cycles = sum_high_water m (fun w -> w.Wam.Machine.idle_cycles);
    wait_cycles = sum_high_water m (fun w -> w.Wam.Machine.wait_cycles);
    trace = buf;
    area_stats = stats;
    opcode_freq = m.Wam.Machine.opcode_freq;
    heap_words = sum_high_water m Wam.Machine.heap_used;
    local_words = sum_high_water m Wam.Machine.local_used;
    control_words = sum_high_water m Wam.Machine.control_used;
    trail_words = sum_high_water m Wam.Machine.trail_used;
  }

(* Compile the benchmark, optionally rewriting the parsed database
   first (e.g. re-annotation with granularity control).  [det] turns
   on determinacy-driven choice-point elision; [bind] turns on
   binding-certified instruction specialization; [chains] logs the
   emitted try chains for the elision stats and the detan oracle. *)
let prepare ~parallel ?det ?bind ?chains ?transform
    (bench : Programs.benchmark) =
  match transform with
  | None ->
    Wam.Program.prepare ~parallel ?det ?bind ?chains ~src:bench.Programs.src
      ~query:bench.Programs.query ()
  | Some f ->
    let db = f (Prolog.Database.of_string bench.Programs.src) in
    Wam.Program.of_database ~parallel ?det ?bind ?chains db
      ~query:bench.Programs.query ()

(* Sequential WAM run (the paper's baseline). *)
let run_wam ?(keep_trace = true) ?det ?bind ?transform
    (bench : Programs.benchmark) =
  let prog = prepare ~parallel:false ?det ?bind ?transform bench in
  let stats, buf, sink = collectors ~keep_trace in
  let result, m = Wam.Seq.run ~sink prog in
  let succeeded, answer = answer_of bench.Programs.answer_var result in
  of_machine bench ~n_pes:0 ~succeeded ~answer ~rounds:m.Wam.Machine.steps m
    stats buf

(* RAP-WAM run on [n_pes] workers. *)
let run_rapwam ?(keep_trace = true) ?det ?bind ?steal ?allow_steal ?transform
    ~n_pes (bench : Programs.benchmark) =
  let prog = prepare ~parallel:true ?det ?bind ?transform bench in
  let stats, buf, sink = collectors ~keep_trace in
  let sim = Rapwam.Sim.create ~sink ?steal ?allow_steal ~n_workers:n_pes prog in
  let result = Rapwam.Sim.run_prepared sim prog in
  let succeeded, answer = answer_of bench.Programs.answer_var result in
  of_machine bench ~n_pes ~succeeded ~answer ~rounds:sim.Rapwam.Sim.rounds
    sim.Rapwam.Sim.m stats buf

(* Do a parallel run and the WAM baseline agree on the outcome? *)
let answers_agree a b =
  a.succeeded = b.succeeded
  &&
  match (a.answer, b.answer) with
  | Some t1, Some t2 -> Prolog.Term.equal t1 t2
  | None, None -> true
  | Some _, None | None, Some _ -> false
