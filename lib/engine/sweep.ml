(* The parallel sweep-execution engine: trace generation (stage 1)
   and cache-simulation fan-out (stage 2) on a Domain pool.

   Sharing discipline: a packed trace buffer is written by exactly one
   stage-1 job and, after the DAG barrier, only ever read
   ([Buffer_sink.iter_packed]); every stage-2 job builds its own
   [Cachesim.Multi.t].  Benchmark values are looked up on the main
   domain before the pool starts, so no lazy forcing races across
   domains. *)

type alloc_policy = Default | Allocate | No_allocate | Best

type grid = {
  benchmarks : Benchlib.Programs.benchmark list;
  pe_counts : int list;
  protocols : Cachesim.Protocol.kind list;
  cache_sizes : int list;
  line_words : int;
  alloc : alloc_policy;
}

type outcome = {
  cells : Results.cell list;
  stages : Report.stage list;
  areas : ((string * int) * (string * (int * int)) list) list;
      (** per (bench, PEs) trace: area name -> (reads, writes) *)
  wall_s : float;
  resumed_cells : int;
  journal_skipped : int;
}

let cells_of_grid g =
  List.length g.benchmarks * List.length g.pe_counts
  * List.length g.protocols * List.length g.cache_sizes

let trace_key name n_pes = Printf.sprintf "%s@%dpe" name n_pes

(* Per-area read/write totals of one packed trace, as rendered rows.
   The PE-ownership map only feeds the local/remote split, which these
   rows do not use, so a constant map suffices (and keeps the engine
   free of a wam dependency). *)
let area_rows_of_buffer buf =
  let st = Trace.Areastats.create ~pe_of_addr:(fun _ -> -1) () in
  Trace.Sink.Buffer_sink.iter (Trace.Areastats.record st) buf;
  List.map
    (fun a ->
      (Trace.Area.slug a, (Trace.Areastats.reads st a, Trace.Areastats.writes st a)))
    Trace.Area.all

let generate_trace bench n_pes () =
  let result =
    if n_pes <= 0 then Benchlib.Runner.run_wam bench
    else Benchlib.Runner.run_rapwam ~n_pes bench
  in
  result.Benchlib.Runner.trace

let simulate grid ~kind ~n_pes ~cache_words buf =
  let line_words = grid.line_words in
  (* each simulation gets at least one cache even for WAM (0-PE) traces *)
  let n_pes = max n_pes 1 in
  match grid.alloc with
  | Default ->
    Cachesim.Multi.simulate ~line_words ~kind ~cache_words ~n_pes buf
  | Allocate ->
    Cachesim.Multi.simulate ~line_words ~write_allocate:true ~kind
      ~cache_words ~n_pes buf
  | No_allocate ->
    Cachesim.Multi.simulate ~line_words ~write_allocate:false ~kind
      ~cache_words ~n_pes buf
  | Best ->
    fst
      (Cachesim.Multi.simulate_best ~line_words ~kind ~cache_words ~n_pes
         buf)

(* Optional verify stage: replay the freshly generated (or
   pre-supplied) trace through the happens-before checker before any
   simulation consumes it.  A violation fails the producer job, and
   the DAG's fault propagation marks every dependent cell Error. *)
let checked key thunk () =
  let buf = thunk () in
  let s = Tracecheck.check_buffer buf in
  if not (Tracecheck.ok s) then
    failwith
      (Format.asprintf "tracecheck %s: %a" key Tracecheck.pp_summary s);
  buf

let check_grid g =
  List.iter
    (fun n_pes ->
      if n_pes > Cachesim.Multi.max_pes then
        invalid_arg
          (Printf.sprintf "Sweep: %d PEs, but the cache simulator takes at most %d"
             n_pes Cachesim.Multi.max_pes))
    g.pe_counts;
  List.iter
    (fun kind ->
      List.iter
        (fun cache_words ->
          try
            ignore
              (Cachesim.Protocol.make ~line_words:g.line_words ~kind ~cache_words ())
          with Invalid_argument msg ->
            invalid_arg
              (Printf.sprintf "Sweep: %d-word cache with %d-word lines: %s"
                 cache_words g.line_words msg))
        g.cache_sizes)
    g.protocols

let run ?jobs ?(echo = false) ?(check = false) ?(traces = []) ?faults
    ?watchdog ?journal ?(resume = false) grid =
  check_grid grid;
  let t0 = Unix.gettimeofday () in
  (* Resume: trust exactly the journal frames whose checksums verify
     (Journal.replay already skipped the rest), keyed by config. *)
  let journaled : (string, Cachesim.Metrics.t) Hashtbl.t = Hashtbl.create 64 in
  let journal_skipped = ref 0 in
  if resume then begin
    match journal with
    | None -> invalid_arg "Sweep.run: ~resume requires ~journal"
    | Some path when Sys.file_exists path ->
      let r = Resilience.Journal.replay path in
      journal_skipped := r.Resilience.Journal.skipped_frames;
      List.iter
        (fun payload ->
          match Results.decode_cell payload with
          | Some (key, m) -> Hashtbl.replace journaled key m
          | None -> incr journal_skipped)
        r.Resilience.Journal.entries
    | Some _ -> ()
  end;
  let configs =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun n_pes ->
            List.concat_map
              (fun protocol ->
                List.map
                  (fun cache_words ->
                    {
                      Results.bench = b.Benchlib.Programs.name;
                      n_pes;
                      protocol;
                      line_words = grid.line_words;
                      cache_words;
                    })
                  grid.cache_sizes)
              grid.protocols)
          grid.pe_counts)
      grid.benchmarks
  in
  let done_cells, todo =
    List.partition_map
      (fun (c : Results.config) ->
        match Hashtbl.find_opt journaled (Results.config_key c) with
        | Some m -> Left { Results.config = c; metrics = Ok m }
        | None -> Right c)
      configs
  in
  (* Producers only for traces a remaining cell still needs. *)
  let needed = Hashtbl.create 16 in
  List.iter
    (fun (c : Results.config) ->
      Hashtbl.replace needed (trace_key c.Results.bench c.Results.n_pes) ())
    todo;
  (* Producer wrapper: tally the finished trace's per-area read/write
     totals.  Producers run on pool domains, so the table is
     mutex-protected; rows are computed outside the lock. *)
  let area_tbl : (string * int, (string * (int * int)) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let area_mutex = Mutex.create () in
  let capture (name, n_pes) thunk () =
    let buf = thunk () in
    let rows = area_rows_of_buffer buf in
    Mutex.lock area_mutex;
    Hashtbl.replace area_tbl (name, n_pes) rows;
    Mutex.unlock area_mutex;
    buf
  in
  let produce =
    (* pre-supplied traces become instant producers, so the DAG's
       dependency and fault-propagation story is uniform *)
    List.map
      (fun ((name, n_pes), buf) ->
        (trace_key name n_pes, capture (name, n_pes) (fun () -> buf)))
      traces
    @ List.concat_map
        (fun b ->
          List.map
            (fun n_pes ->
              ( trace_key b.Benchlib.Programs.name n_pes,
                capture
                  (b.Benchlib.Programs.name, n_pes)
                  (generate_trace b n_pes) ))
            grid.pe_counts)
        grid.benchmarks
  in
  let produce =
    List.filter (fun (key, _) -> Hashtbl.mem needed key) produce
  in
  let produce =
    if check then List.map (fun (key, thunk) -> (key, checked key thunk)) produce
    else produce
  in
  let consume =
    List.map
      (fun (c : Results.config) ->
        ( Results.config_key c,
          trace_key c.Results.bench c.Results.n_pes,
          fun buf ->
            Resilience.Fault.hit ?plan:faults "cell-start";
            Resilience.Fault.hit ?plan:faults "sim-step";
            simulate grid ~kind:c.Results.protocol ~n_pes:c.Results.n_pes
              ~cache_words:c.Results.cache_words buf ))
      todo
  in
  (* Checkpointing: append every completed cell to the journal,
     fsync'd, under the DAG's serialized on_consumed hook.  A
     non-lethal journal I/O failure degrades to warn-once (the sweep's
     results are unaffected; only resumability of those cells is
     lost); an injected crash propagates — that is the disaster the
     journal exists to survive. *)
  let writer =
    Option.map
      (fun path -> Resilience.Journal.create ?plan:faults ~append:resume path)
      journal
  in
  let on_consumed (c : _ Job.completed) =
    match (writer, c.Job.outcome) with
    | Some w, Ok m -> (
      try Resilience.Journal.append w (Results.encode_cell c.Job.key m)
      with
      | Resilience.Fault.Injected { kind = Resilience.Fault.Crash; _ } as e ->
        raise e
      | e ->
        Printf.eprintf
          "sweep: checkpoint journal write failed (%s); journaling disabled\n%!"
          (Printexc.to_string e);
        Resilience.Journal.close w)
    | _ -> ()
  in
  let completed, stages =
    Fun.protect
      ~finally:(fun () -> Option.iter Resilience.Journal.close writer)
      (fun () ->
        Dag.run ?jobs ~echo ?watchdog ~on_consumed
          ~stage_labels:("trace-gen", "cache-sim")
          { Dag.produce; consume })
  in
  let fresh =
    List.map2
      (fun config (c : _ Job.completed) ->
        { Results.config; metrics = c.Job.outcome })
      todo
      (Array.to_list completed)
  in
  {
    cells = Results.sort (done_cells @ fresh);
    stages;
    areas =
      List.sort compare
        (Hashtbl.fold (fun k rows acc -> (k, rows) :: acc) area_tbl []);
    wall_s = Unix.gettimeofday () -. t0;
    resumed_cells = List.length done_cells;
    journal_skipped = !journal_skipped;
  }

let parallel_runs ?jobs ?(echo = false) pairs =
  let arr = Array.of_list pairs in
  let rep =
    Report.create ~echo ~label:"bench-runs" ~total:(Array.length arr) ()
  in
  let completed =
    Pool.map ?jobs
      ~on_done:(fun (c : _ Job.completed) ->
        Report.step rep ~ok:(Job.ok c) ~wall_s:c.Job.wall_s)
      (fun (b, n_pes) ->
        Job.run
          (Job.make
             ~key:(trace_key b.Benchlib.Programs.name n_pes)
             (fun () ->
               if n_pes <= 0 then Benchlib.Runner.run_wam b
               else Benchlib.Runner.run_rapwam ~n_pes b)))
      arr
  in
  ignore (Report.finish rep);
  List.map2
    (fun (b, n_pes) (c : _ Job.completed) ->
      ((b.Benchlib.Programs.name, n_pes), c.Job.outcome))
    pairs
    (Array.to_list completed)
