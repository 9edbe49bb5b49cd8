(* The parallel sweep-execution engine: trace generation (stage 1)
   and cache-simulation fan-out (stage 2) on a Domain pool.

   Stage 2 runs one job per (trace, protocol): one simulator pass per
   allocation policy serves every cache size of the job
   ([Cachesim.Multi.simulate_sizes]), and the job returns one result
   per cell, so the cells, the journal's frames and the renderers are
   what a job per cell would give.

   Sharing discipline: a prepared trace ([Cachesim.Multi.prepared]) is
   built by exactly one stage-1 job and, after the DAG barrier, only
   ever read; every stage-2 job runs its own simulation over it.
   Benchmark values are looked up on the main domain before the pool
   starts, so no lazy forcing races across domains. *)

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

(* Per-area read/write totals of one prepared trace, as rendered rows. *)
let area_rows p =
  List.map
    (fun a -> (Trace.Area.slug a, Cachesim.Multi.area_counts p a))
    Trace.Area.all

let generate_trace bench n_pes () =
  let result =
    if n_pes <= 0 then Benchlib.Runner.run_wam bench
    else Benchlib.Runner.run_rapwam ~n_pes bench
  in
  result.Benchlib.Runner.trace

let job_key (c : Results.config) =
  Printf.sprintf "%s/%dpe/%s/l%d" c.Results.bench c.Results.n_pes
    (Cachesim.Protocol.kind_name c.Results.protocol)
    c.Results.line_words

(* [l] in pieces of at most [n]. *)
let rec chunks n = function
  | [] -> []
  | l -> List.filteri (fun i _ -> i < n) l :: chunks n (List.filteri (fun i _ -> i >= n) l)

(* The cells of one (trace, protocol) at [sizes]: one pass per
   allocation policy the grid needs, a size list longer than a pass
   holds run as several passes.  One [Metrics.t] per size, in order. *)
let simulate grid ~kind ~n_pes ~sizes p =
  (* each simulation gets at least one cache even for WAM (0-PE) traces *)
  let n_pes = max n_pes 1 in
  let pass write_allocate sizes =
    List.concat_map
      (fun chunk ->
        List.combine chunk
          (Cachesim.Multi.simulate_sizes ~write_allocate ~kind ~cache_words:chunk
             ~n_pes p))
      (chunks Cachesim.Multi.max_sizes (List.sort_uniq compare sizes))
  in
  let by_size =
    match grid.alloc with
    | Allocate -> pass true sizes
    | No_allocate -> pass false sizes
    | Default ->
      let alloc, no_alloc =
        List.partition
          (fun cache_words -> Cachesim.Protocol.paper_allocate_policy ~kind ~cache_words)
          sizes
      in
      pass true alloc @ pass false no_alloc
    | Best ->
      (* the lower traffic per size; allocate wins a tie *)
      List.map2
        (fun (c, a) (_, b) ->
          ( c,
            if Cachesim.Metrics.traffic_ratio a <= Cachesim.Metrics.traffic_ratio b
            then a
            else b ))
        (pass true sizes) (pass false sizes)
  in
  List.map (fun c -> List.assoc c by_size) sizes

(* Optional verify stage: replay the freshly generated (or
   pre-supplied) trace through the happens-before checker before any
   simulation consumes it.  A violation fails the producer job, and
   the DAG's fault propagation marks every dependent cell Error. *)
let check_trace key buf =
  let s = Tracecheck.check_buffer buf in
  if not (Tracecheck.ok s) then
    failwith
      (Format.asprintf "tracecheck %s: %a" key Tracecheck.pp_summary s)

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
    ?attempts ?journal ?(resume = false) grid =
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
  (* A producer: the trace, prepared for the grid's line size, with
     its per-area read/write totals tallied (also when its check then
     fails), then checked when [check] is set.  Producers run on pool
     domains, so the table is mutex-protected; rows are computed
     outside the lock.  The buffer is garbage once the job returns. *)
  let area_tbl : (string * int, (string * (int * int)) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let area_mutex = Mutex.create () in
  let producer (name, n_pes) thunk =
    let key = trace_key name n_pes in
    ( key,
      fun () ->
        let buf = thunk () in
        let p = Cachesim.Multi.prepare ~line_words:grid.line_words buf in
        let rows = area_rows p in
        Mutex.lock area_mutex;
        Hashtbl.replace area_tbl (name, n_pes) rows;
        Mutex.unlock area_mutex;
        if check then check_trace key buf;
        p )
  in
  let produce =
    (* pre-supplied traces become instant producers, so the DAG's
       dependency and fault-propagation story is uniform *)
    List.map (fun (trace, buf) -> producer trace (fun () -> buf)) traces
    @ List.concat_map
        (fun b ->
          List.map
            (fun n_pes ->
              producer
                (b.Benchlib.Programs.name, n_pes)
                (generate_trace b n_pes))
            grid.pe_counts)
        grid.benchmarks
  in
  let produce =
    List.filter (fun (key, _) -> Hashtbl.mem needed key) produce
  in
  (* One job per (trace, protocol) with a cell still to compute; the
     configurations are built nested, sizes innermost, so a job's
     remaining cells are adjacent. *)
  let groups =
    List.rev_map List.rev
      (List.fold_left
         (fun acc (c : Results.config) ->
           match acc with
           | ((c0 : Results.config) :: _ as job) :: rest
             when job_key c0 = job_key c ->
             (c :: job) :: rest
           | _ -> [ c ] :: acc)
         [] todo)
  in
  let consume =
    List.map
      (fun (configs : Results.config list) ->
        let c = List.hd configs in
        ( job_key c,
          trace_key c.Results.bench c.Results.n_pes,
          fun p ->
            Resilience.Fault.hit ?plan:faults "cell-start";
            Resilience.Fault.hit ?plan:faults "sim-step";
            List.combine configs
              (simulate grid ~kind:c.Results.protocol ~n_pes:c.Results.n_pes
                 ~sizes:(List.map (fun (c : Results.config) -> c.Results.cache_words) configs)
                 p) ))
      groups
  in
  (* Checkpointing: append every cell of a completed job to the
     journal, one frame each, fsync'd, under the DAG's serialized
     on_consumed hook.  A non-lethal journal I/O failure degrades to
     warn-once (the sweep's results are unaffected; only resumability
     of those cells is lost); an injected crash propagates — that is
     the disaster the journal exists to survive. *)
  let writer =
    Option.map
      (fun path -> Resilience.Journal.create ?plan:faults ~append:resume path)
      journal
  in
  let on_consumed (c : _ Job.completed) =
    match (writer, c.Job.outcome) with
    | Some w, Ok cells -> (
      try
        List.iter
          (fun (config, m) ->
            Resilience.Journal.append w
              (Results.encode_cell (Results.config_key config) m))
          cells
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
        Dag.run ?jobs ~echo ?attempts ~on_consumed
          ~stage_labels:("trace-gen", "cache-sim")
          { Dag.produce; consume })
  in
  let fresh =
    List.concat
      (List.map2
         (fun configs (c : _ Job.completed) ->
           match c.Job.outcome with
           | Ok cells ->
             List.map (fun (config, m) -> { Results.config; metrics = Ok m }) cells
           | Error e -> List.map (fun config -> { Results.config; metrics = Error e }) configs)
         groups
         (Array.to_list completed))
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
