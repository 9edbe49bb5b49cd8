(* The repository benchmark.

     dune exec benchmark/main.exe -- --workload fig4-sweep --seed 3 --seconds 20 --trace 0

   One run: set the workload up (and warm it) three times, time passes
   of it for --seconds, check every output, and print every metric by
   name with its unit.  The last line of standard output is the JSON result:
   the end-to-end metrics untraced (--trace 0), the per-layer metrics
   traced (--trace 1).  Without --workload the program runs itself once
   per workload, so each workload's memory is measured in its own
   process.  README.md in this directory documents the workloads and
   metrics. *)

let workloads =
  [
    ("fig4-sweep", Fig4.run);
    ("trace-gen", Tracegen.run);
    ("serve-hot", Serving.run Serving.hot);
    ("serve-churn", Serving.run Serving.churn);
  ]

let result_line (t : Oracle.tally) metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (t.Oracle.failed = 0));
         ("attempted", Json.Num (float_of_int t.Oracle.attempted));
         ("failed", Json.Num (float_of_int t.Oracle.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit, v) ->
                  (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
                metrics) );
       ])

let metric (name, unit, v) = Printf.printf "metric %-40s %.6g %s\n" name v unit

let untraced_metrics (o : Run.outcome) =
  let ms x = x *. 1e3 in
  [
    ("setup_s", "s", Measure.median o.Run.setup_s);
    ("wall_s", "s", Measure.median o.Run.pass_s);
    ("ops_per_s", "op/s", o.Run.ops /. Measure.sum o.Run.pass_s);
    ("lat_p50_ms", "ms", ms (Measure.percentile o.Run.latency_s 50.));
    ("lat_p99_ms", "ms", ms (Measure.percentile o.Run.latency_s 99.));
    ("peak_rss_mb", "MB", Measure.peak_rss_mb ());
  ]

let run_one name run ~seed ~seconds ~traced ~smoke =
  let trace_out = Printf.sprintf "bench-trace/%s-seed%d.jsonl" name seed in
  Spans.run_id := Printf.sprintf "%s-seed%d-%d" name seed (Unix.getpid ());
  let ctx = { Run.seed; seconds; traced; smoke } in
  Printf.printf "workload %s seed %d%s%s\n%!" name seed
    (if smoke then " smoke" else "") (if traced then " traced" else "");
  let o = run ctx in
  let metrics =
    if not traced then begin
      let m = untraced_metrics o in
      Printf.printf "passes %d (median wall_s), set-ups %d (median setup_s)\n" (Array.length o.Run.pass_s)
        (Array.length o.Run.setup_s);
      Printf.printf "operation: %s; request: %s; %d requests, %d beyond p99\n" o.Run.op o.Run.request
        (Array.length o.Run.latency_s) (Measure.beyond o.Run.latency_s 99.);
      m
    end
    else begin
      Spans.enabled := true;
      let metrics = Ledger.run o.Run.ledger o.Run.stream o.Run.tally in
      Spans.enabled := false;
      let untraced = Measure.sum o.Run.pass_s and traced = Measure.sum o.Run.traced_s in
      Printf.printf "tracing overhead %+.2f%% (%d traced passes %.3f s, %d untraced %.3f s)\n"
        (((traced /. untraced) -. 1.) *. 100.)
        (Array.length o.Run.traced_s) traced (Array.length o.Run.pass_s) untraced;
      let self = Spans.self_times () in
      let total = List.fold_left (fun acc (_, s) -> acc +. s) 0. self in
      List.iter
        (fun (layer, s) -> Printf.printf "self %-10s %10.4f s %6.2f%%\n" layer s (100. *. s /. total))
        self;
      Spans.write trace_out;
      Printf.printf "spans: %d written to %s\n" (List.length (Spans.spans ())) trace_out;
      metrics
    end
  in
  List.iter print_endline o.Run.lines;
  List.iter metric metrics;
  let t = o.Run.tally in
  metric
    ( "error_rate", "ratio",
      if t.Oracle.attempted = 0 then 1. else float_of_int t.Oracle.failed /. float_of_int t.Oracle.attempted );
  List.iter (fun n -> Printf.printf "failure: %s\n" n) (List.rev t.Oracle.notes);
  Printf.printf "digest %s %s\n" name o.Run.digest;
  print_endline (result_line t metrics)

(* Run every workload in a child process of its own. *)
let run_all args =
  let failed =
    List.filter
      (fun (name, _) ->
        let argv = Array.of_list ((Sys.executable_name :: args) @ [ "--workload"; name ]) in
        let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
        match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> false | _ -> true)
      workloads
  in
  if failed <> [] then exit 1

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 20 and trace = ref 0 in
  let smoke = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload,
        "NAME " ^ String.concat "|" (List.map fst workloads) ^ " (default: each, one process each)");
      ("--seed", Arg.Set_int seed, "N input seed; 0 = the repository's paper-scale inputs (default 0)");
      ("--seconds", Arg.Set_int seconds, "N how long the timed passes of an untraced run last (default 20)");
      ("--trace", Arg.Set_int trace,
        "0|1 record spans into bench-trace/WORKLOAD-seedN.jsonl and report the per-layer metrics (default 0)");
      ("--smoke", Arg.Set smoke, " reduced inputs and one pass of each kind (the test suite's setting)");
    ]
  in
  let usage = "main.exe [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--smoke]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  if !seconds < 1 then (prerr_endline "--seconds must be at least 1"; exit 2);
  if !seed < 0 then (prerr_endline "--seed must be non-negative"; exit 2);
  if !workload = "" then
    run_all (List.tl (Array.to_list Sys.argv))
  else
    match List.assoc_opt !workload workloads with
    | None ->
      Printf.eprintf "unknown workload %S\n%s\n" !workload usage;
      exit 2
    | Some run ->
      run_one !workload run ~seed:!seed ~seconds:(float_of_int !seconds) ~traced:(!trace = 1)
        ~smoke:!smoke
