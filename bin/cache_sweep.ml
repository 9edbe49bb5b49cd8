(* cache_sweep: run benchmark traces through the coherent-cache
   simulators across a {benchmark x protocol x cache-size} grid, in
   parallel on the sweep engine's domain pool.

     cache_sweep --bench deriv --pes 8
     cache_sweep --bench deriv,tak,qsort --pes 8 --jobs 4 --json out.json
     cache_sweep --bench qsort --pes 4 --protocol hybrid --line 8

   Stage 1 emulates each benchmark once (RAP-WAM on --pes workers);
   stage 2 fans the cache simulations out over the shared packed
   trace.  Output is keyed and sorted by configuration, so any --jobs
   value produces byte-identical tables/JSON/CSV; progress and timing
   go to stderr only. *)

let protocols =
  [
    ("write-through", Cachesim.Protocol.Write_through);
    ("write-in", Cachesim.Protocol.Write_in_broadcast);
    ("write-through-broadcast", Cachesim.Protocol.Write_through_broadcast);
    ("hybrid", Cachesim.Protocol.Hybrid);
    ("copyback", Cachesim.Protocol.Copyback);
  ]

(* One table per benchmark: protocol rows x cache-size columns, as the
   sequential tool printed, but read back out of the sorted cells. *)
let print_tables ~pes ~line ~sizes ~selected cells =
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (c : Engine.Results.cell) ->
      Hashtbl.replace by_key
        (c.Engine.Results.config.Engine.Results.bench,
         c.Engine.Results.config.Engine.Results.protocol,
         c.Engine.Results.config.Engine.Results.cache_words)
        c.Engine.Results.metrics)
    cells;
  let benches =
    List.sort_uniq compare
      (List.map
         (fun (c : Engine.Results.cell) ->
           c.Engine.Results.config.Engine.Results.bench)
         cells)
  in
  List.iter
    (fun bench ->
      let t =
        Stats.Table.create
          ~title:
            (Printf.sprintf "%s, %d PEs, %d-word lines (traffic ratio)"
               bench pes line)
          ~headers:("protocol" :: List.map string_of_int sizes)
          ~aligns:
            (Stats.Table.Left :: List.map (fun _ -> Stats.Table.Right) sizes)
          ()
      in
      List.iter
        (fun (name, kind) ->
          let cells =
            List.map
              (fun size ->
                match Hashtbl.find_opt by_key (bench, kind, size) with
                | Some (Ok st) ->
                  Stats.Table.cell_float (Cachesim.Metrics.traffic_ratio st)
                | Some (Error _) -> "error"
                | None -> "-")
              sizes
          in
          Stats.Table.add_row t (name :: cells))
        selected;
      Stats.Table.print t)
    benches

(* Typed exit codes, so the CI chaos job (and any wrapper script) can
   tell data corruption (a corrupt or truncated trace file exits
   Benchlib.Cli.exit_dataerr, 65) from an injected crash from failed
   cells. *)
let exit_crash = 70 (* injected crash fault: "process killed" (EX_SOFTWARE) *)
let exit_failed_cells = 4

let run_cmd bench_names pes protocol_name line sizes jobs check check_static
    json_out csv_out verbose trace_file quick faults journal resume
    watchdog_s salvage =
  if resume && journal = None then begin
    prerr_endline "cache_sweep: --resume requires --journal FILE";
    exit 2
  end;
  let selected =
    match protocol_name with
    | None -> protocols
    | Some n -> List.filter (fun (name, _) -> name = n) protocols
  in
  let grid_of benchmarks =
    {
      Engine.Sweep.benchmarks;
      pe_counts = [ pes ];
      protocols = List.map snd selected;
      cache_sizes = sizes;
      line_words = line;
      alloc = Engine.Sweep.Default;
    }
  in
  (* reject a grid the simulator cannot run before any emulation *)
  (try Engine.Sweep.check_grid (grid_of [])
   with Invalid_argument msg ->
     prerr_endline ("cache_sweep: " ^ msg);
     exit 2);
  (* --check-static: certify parcall groups with the static access
     analysis first; when every group of every selected benchmark is
     static_safe the dynamic tracecheck replay is skipped, otherwise
     the sweep keeps (or gains) the --check verify stage. *)
  let check =
    if not check_static then check
    else
      List.exists
        (fun name ->
          let b = Benchlib.Inputs.benchmark ~quick name in
          let module R = Certification.Make (Refmap.Instance) in
          let c = (R.analyze b).a.Refmap.Instance.certify in
          let all =
            c.Refmap.Certify.total = c.Refmap.Certify.certified
          in
          Printf.eprintf "refmap: %s: %d/%d parcall groups certified%s\n%!"
            name c.Refmap.Certify.certified c.Refmap.Certify.total
            (if all then " (static_safe: trace verify not needed)"
             else " (dynamic verify required)");
          not all)
        bench_names
  in
  let watchdog =
    Option.map (fun timeout_s -> Engine.Job.watchdog ~timeout_s ()) watchdog_s
  in
  let outcome =
    try
      match trace_file with
      | Some path ->
        (* sweep a pre-recorded trace: no stage-1 emulation *)
        let buf =
          if salvage then begin
            let buf, damage = Trace.Tracefile.read_salvage path in
            if not (Trace.Tracefile.clean damage) then
              Format.eprintf "%a@." Trace.Tracefile.pp_damage damage;
            buf
          end
          else Trace.Tracefile.read path
        in
        Printf.eprintf "trace %s: %d references\n%!" path
          (Trace.Sink.Buffer_sink.length buf);
        let name = List.hd bench_names in
        let bench = Benchlib.Inputs.benchmark ~quick name in
        Engine.Sweep.run ?jobs ~echo:verbose ~check ?faults ?watchdog
          ?journal ~resume
          ~traces:[ ((name, pes), buf) ]
          (grid_of [ bench ])
      | None ->
        let benchmarks = List.map (Benchlib.Inputs.benchmark ~quick) bench_names in
        Engine.Sweep.run ?jobs ~echo:true ~check ?faults ?watchdog ?journal
          ~resume (grid_of benchmarks)
    with
    | Trace.Tracefile.Trace_error { offset; reason } ->
      Printf.eprintf
        "cache_sweep: trace error at byte %d: %s (re-run with --salvage \
         to sweep the intact prefix)\n%!"
        offset reason;
      exit Benchlib.Cli.exit_dataerr
    | Resilience.Fault.Injected
        { site; kind = Resilience.Fault.Crash; occurrence } ->
      Printf.eprintf
        "cache_sweep: killed by injected crash at %s (occurrence %d)%s\n%!"
        site occurrence
        (if journal <> None then "; re-run with --resume to continue"
         else "");
      exit exit_crash
  in
  if resume then
    Printf.eprintf "resumed %d cells from the journal%s\n%!"
      outcome.Engine.Sweep.resumed_cells
      (if outcome.Engine.Sweep.journal_skipped > 0 then
         Printf.sprintf " (%d corrupt frames skipped)"
           outcome.Engine.Sweep.journal_skipped
       else "");
  List.iter
    (fun s -> Format.eprintf "%a@." Engine.Report.pp_stage s)
    outcome.Engine.Sweep.stages;
  if verbose then
    List.iter
      (fun (c : Engine.Results.cell) ->
        match c.Engine.Results.metrics with
        | Ok st ->
          Format.eprintf "%s: %a@."
            (Engine.Results.config_key c.Engine.Results.config)
            Cachesim.Metrics.pp st
        | Error e ->
          Format.eprintf "%s: FAILED %s@."
            (Engine.Results.config_key c.Engine.Results.config)
            e)
      outcome.Engine.Sweep.cells;
  print_tables ~pes ~line ~sizes ~selected outcome.Engine.Sweep.cells;
  let failed =
    List.filter
      (fun (c : Engine.Results.cell) ->
        Result.is_error c.Engine.Results.metrics)
      outcome.Engine.Sweep.cells
  in
  if failed <> [] then
    Printf.eprintf "%d of %d cells failed (see --verbose)\n%!"
      (List.length failed)
      (List.length outcome.Engine.Sweep.cells);
  Option.iter
    (fun path ->
      Resilience.Atomic_io.write_string path
        (Obs.Json.to_string
           (Engine.Results.to_json outcome.Engine.Sweep.cells)))
    json_out;
  Option.iter
    (fun path ->
      Resilience.Atomic_io.write_string path
        (Engine.Results.to_csv ~areas:outcome.Engine.Sweep.areas
           outcome.Engine.Sweep.cells))
    csv_out;
  if failed <> [] then exit exit_failed_cells

open Cmdliner

let bench_arg =
  Arg.(
    value
    & opt
        (list (enum (List.map (fun n -> (n, n)) Benchlib.Programs.all_names)))
        [ "qsort" ]
    & info [ "b"; "bench" ] ~docv:"NAME[,NAME...]"
        ~doc:"Benchmark(s) to trace.")

let pes_arg =
  (* not Cli.pe_count: more than 62 PEs is a grid the simulator cannot
     run, which check_grid rejects with exit 2 *)
  Arg.(
    value & opt Benchlib.Cli.pos_int 8
    & info [ "p"; "pes" ] ~docv:"N" ~doc:"Workers.")

let protocol_arg =
  Arg.(
    value
    & opt (some (enum (List.map (fun (n, _) -> (n, n)) protocols))) None
    & info [ "protocol" ] ~docv:"NAME" ~doc:"Only this protocol.")

let line_arg =
  Arg.(value & opt int 4 & info [ "line" ] ~docv:"WORDS" ~doc:"Line size.")

let sizes_arg =
  Arg.(
    value
    & opt (list int) [ 64; 128; 256; 512; 1024; 2048; 4096; 8192 ]
    & info [ "sizes" ] ~docv:"LIST" ~doc:"Cache sizes in words.")

let jobs_arg =
  Arg.(
    value
    & opt (some Benchlib.Cli.pos_int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the sweep engine (default: the host's \
           recommended domain count).  Any value produces byte-identical \
           results.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Replay every generated trace through the happens-before \
           checker (tracecheck) before simulating; violations fail the \
           affected cells.")

let check_static_arg =
  Arg.(
    value & flag
    & info [ "check-static" ]
        ~doc:
          "Certify parcall groups with the static access analysis \
           (refmap) first; benchmarks whose groups are all static_safe \
           skip the tracecheck replay, any uncertified group keeps the \
           dynamic verify stage for the whole sweep.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the cells as JSON.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE"
        ~doc:
          "Write the cells as CSV, including per-area \
           $(i,area)_reads/$(i,area)_writes trace columns for each \
           benchmark/PE trace the sweep produced.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print full metrics.")

let trace_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "trace-file" ] ~docv:"FILE"
        ~doc:"Sweep a trace written by trace_dump --binary instead of \
              running a benchmark.")

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "Use the reduced benchmark inputs (small, seconds-long runs; \
           the CI chaos job's setting).")

let fault_plan =
  let parse s =
    match Resilience.Fault.of_spec s with
    | Ok p -> Ok p
    | Error m -> Error (`Msg m)
  in
  let print fmt p = Format.pp_print_string fmt (Resilience.Fault.to_string p) in
  Arg.conv ~docv:"SPEC" (parse, print)

let faults_arg =
  Arg.(
    value
    & opt (some fault_plan) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Inject deterministic faults: $(b,seed:N) for a seeded plan, or \
           comma-separated $(b,SITE:KIND@N) items (sites: trace-write, \
           block-flush, cell-start, sim-step, journal-append; kinds: \
           truncate, bit-flip, eio, stall, crash), optionally with \
           $(b,stall-s:SECONDS).")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Checkpoint every completed cell to this append-only fsync'd \
           journal, making the sweep resumable after a crash.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Load completed cells from --journal and compute only the rest; \
           the merged output is byte-identical to an uninterrupted sweep.")

let watchdog_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "watchdog" ] ~docv:"SECONDS"
        ~doc:
          "Abandon and retry any sweep cell that stalls beyond this many \
           seconds (3 attempts with exponential backoff).")

let salvage_arg =
  Arg.(
    value & flag
    & info [ "salvage" ]
        ~doc:
          "With --trace-file: keep every block whose checksum verifies, \
           skip damaged ones, and sweep the salvaged trace instead of \
           failing on the first corruption.")

let cmd =
  let doc = "sweep cache protocols and sizes over benchmark traces" in
  Cmd.v
    (Cmd.info "cache_sweep" ~doc)
    Term.(
      const run_cmd $ bench_arg $ pes_arg $ protocol_arg $ line_arg
      $ sizes_arg $ jobs_arg $ check_arg $ check_static_arg $ json_arg
      $ csv_arg $ verbose_arg $ trace_file_arg
      $ quick_arg $ faults_arg $ journal_arg $ resume_arg $ watchdog_arg
      $ salvage_arg)

let () = Benchlib.Cli.eval cmd
