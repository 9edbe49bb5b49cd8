(* serve: the supervised concurrent query server, driven by a
   deterministic zipfian traffic generator.

     serve --quick
     serve --mix deriv:24,qsort:24 --requests 2000 --workers 4
     serve --benchmark qsort --memo-mb 16 --json BENCH_server.json
     serve --quick --faults 'sim-step:eio@3' --deadline-ms 5000 --retries 2
     serve --quick --snapshot memo.snap        # save the table after the run
     serve --quick --restore memo.snap         # warm-start from it

   Three phases run over the same request stream — memo off, cold
   table, warm table — under a supervision policy (deadline + retries,
   circuit breaker, load shedding, crash containment).  Then every
   distinct query is cross-checked against a direct engine run and the
   memo-off latency is compared with the M/G/1 model.  --json writes
   the BENCH_server.json artifact.  The process exits 0 only if every
   acceptance invariant holds, 4 otherwise; an injected crash is
   contained to its request and never ends the run.  A --restore file
   that cannot be read exits 65 and a bad flag 124 (the Benchlib.Cli
   contract). *)

let exit_invariant = 4 (* an acceptance invariant failed *)

let run_cmd mix benchmark pes workers memo_mb shards requests batch zipf_s seed
    threshold max_queue faults deadline_ms retries breaker shed_watermark
    snapshot restore json_out quick quiet =
  let defaults = Server.Harness.default_params ~quick () in
  let mix =
    match (mix, benchmark) with
    | Some mix, _ -> mix
    | None, Some name -> [ (name, 24) ]
    | None, None -> defaults.Server.Harness.mix
  in
  let policy =
    Server.Supervise.policy
      ?deadline_s:(Option.map (fun ms -> float_of_int ms /. 1000.) deadline_ms)
      ~retries
      ?breaker:(if breaker then Some Server.Supervise.breaker_default else None)
      ?shed_watermark ()
  in
  let params =
    {
      Server.Harness.mix;
      seed;
      zipf_s;
      requests = Option.value requests ~default:defaults.Server.Harness.requests;
      batch = Option.value batch ~default:defaults.Server.Harness.batch;
      pes;
      workers = Option.value workers ~default:defaults.Server.Harness.workers;
      memo_words = memo_mb * 1024 * 1024 / 8;
      memo_shards = shards;
      threshold;
      max_queue;
      faults;
      policy;
      snapshot;
      restore;
    }
  in
  let progress = if quiet then fun _ -> () else Printf.eprintf "%s\n%!" in
  let outcome = Server.Harness.run ~progress params in
  Format.printf "%a" Server.Report.pp outcome;
  Option.iter (fun path -> Server.Report.write_json path outcome) json_out;
  let invariants =
    [
      ("answers_equal", outcome.Server.Harness.o_answers_equal);
      ("hit_rate >= 0.5", Server.Harness.hit_rate_ok outcome);
      ("warm qps > memo-off qps", Server.Harness.warm_speedup_ok outcome);
      ("p99 finite", Server.Harness.p99_finite outcome);
      ("mg1 ratio finite > 0", Server.Harness.mg1_ratio_ok outcome);
    ]
  in
  let failed = List.filter (fun (_, ok) -> not ok) invariants in
  if failed <> [] then begin
    List.iter
      (fun (name, _) -> Printf.eprintf "serve: invariant failed: %s\n" name)
      failed;
    exit exit_invariant
  end

open Cmdliner

let mix =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Server.Traffic.parse_mix s)
  in
  let print fmt mix =
    Format.pp_print_string fmt (Server.Traffic.mix_to_string mix)
  in
  Arg.conv ~docv:"NAME[:COUNT],..." (parse, print)

let mix_arg =
  Arg.(
    value
    & opt (some mix) None
    & info [ "mix" ] ~docv:"NAME[:COUNT],..."
        ~doc:
          "Query mix: benchmarks and how many distinct query instances \
           each contributes to the ranked pool (count defaults to 16).  \
           Overrides --benchmark.")

let benchmark_arg =
  Arg.(
    value
    & opt
        (some (enum (List.map (fun n -> (n, n)) Benchlib.Programs.all_names)))
        None
    & info [ "b"; "benchmark" ] ~docv:"NAME"
        ~doc:"Serve a single benchmark database (24 distinct queries).")

let pes_arg =
  Arg.(
    value & opt Benchlib.Cli.pe_count 1
    & info [ "p"; "pes" ] ~docv:"N"
        ~doc:
          "Simulated PEs per query: 1 runs the sequential WAM, more runs \
           the RAP-WAM simulation.")

let workers_arg =
  Arg.(
    value
    & opt (some Benchlib.Cli.pos_int) None
    & info [ "w"; "workers" ] ~docv:"N"
        ~doc:
          "Worker domains for the queued lane (default: the host's \
           recommended domain count).")

let memo_mb_arg =
  Arg.(
    value & opt Benchlib.Cli.pos_int 64
    & info [ "memo-mb" ] ~docv:"MB" ~doc:"Answer-table capacity.")

let shards_arg =
  Arg.(
    value & opt Benchlib.Cli.pos_int 16
    & info [ "shards" ] ~docv:"N" ~doc:"Answer-table lock shards.")

let requests_arg =
  Arg.(
    value
    & opt (some Benchlib.Cli.pos_int) None
    & info [ "n"; "requests" ] ~docv:"N"
        ~doc:"Requests per phase (default 2000, 400 with --quick).")

let batch_arg =
  Arg.(
    value
    & opt (some Benchlib.Cli.pos_int) None
    & info [ "batch" ] ~docv:"N"
        ~doc:"Requests per batch (the in-flight window; default 500, 200 \
              with --quick).")

let zipf_arg =
  Arg.(
    value & opt float 1.1
    & info [ "zipf" ] ~docv:"S" ~doc:"Zipf skew of the query mix.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:"Seed for the query pool and the sample sequence.")

let threshold_arg =
  Arg.(
    value & opt Benchlib.Cli.pos_int 150
    & info [ "threshold" ] ~docv:"REFS"
        ~doc:
          "Admission-control cost threshold: queries the static analysis \
           bounds below this many data references run inline.")

let max_queue_arg =
  Arg.(
    value & opt Benchlib.Cli.pos_int 256
    & info [ "max-queue" ] ~docv:"N"
        ~doc:"Queued-lane wave size (queue-depth backpressure).")

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
          "Inject deterministic faults into the cold phase \
           ($(b,SITE:KIND@N) items or $(b,seed:N); admission passes \
           cell-start, execution passes sim-step).  The supervisor \
           contains a planned crash to its request.")

let deadline_ms_arg =
  Arg.(
    value
    & opt (some Benchlib.Cli.pos_int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-attempt execution deadline; a request whose attempts all \
           exceed it answers with a typed timeout instead of wedging a \
           worker.")

(* A count that may be zero (extra attempts). *)
let non_negative =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a count >= 0, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let retries_arg =
  Arg.(
    value & opt non_negative 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra attempts for transiently faulted executions \
           (deterministic exponential backoff).")

let breaker_arg =
  Arg.(
    value & flag
    & info [ "breaker" ]
        ~doc:
          "Per-predicate circuit breaker (window 8, trip ratio 0.5, at \
           least 4 samples, cooldown 64 admissions).  A predicate whose \
           recent pooled runs keep failing is fast-failed until a probe \
           succeeds.")

let shed_watermark_arg =
  Arg.(
    value
    & opt (some Benchlib.Cli.pos_int) None
    & info [ "shed-watermark" ] ~docv:"N"
        ~doc:
          "Load shedding: refuse pooled backlog beyond this depth, \
           cheapest-to-refuse first (memo hits and inline work are never \
           shed).")

let snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:"Save the answer table here after the warm phase (atomic, \
              CRC-framed).")

let restore_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "restore" ] ~docv:"FILE"
        ~doc:
          "Warm-start the answer table from a snapshot before the cold \
           phase (damaged frames are skipped and recomputed).")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the BENCH_server.json artifact (atomically).")

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Small pool and 400 requests (the CI server job's setting).")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No phase progress.")

let cmd =
  let doc = "serve zipfian query traffic with shared answer memoing" in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run_cmd $ mix_arg $ benchmark_arg $ pes_arg $ workers_arg
      $ memo_mb_arg $ shards_arg $ requests_arg $ batch_arg $ zipf_arg
      $ seed_arg $ threshold_arg $ max_queue_arg $ faults_arg
      $ deadline_ms_arg $ retries_arg $ breaker_arg $ shed_watermark_arg
      $ snapshot_arg $ restore_arg $ json_arg $ quick_arg $ quiet_arg)

let () = Benchlib.Cli.eval cmd
