(* costan: static cost & granularity analysis report.

     costan program.pl                        -- per-predicate cost table
     costan --threshold 512 program.pl        -- with granularity verdicts
     costan --query 'main(X)' program.pl      -- also predict that query
     costan --benchmarks [--measure] [--json] -- the paper's benchmarks,
                                                 optionally validated
                                                 against traced WAM runs

   Predictions model the sequential WAM: resolution steps (machine
   inferences) and per-area memory references as [lo, hi] intervals.
   --measure reruns each benchmark on the traced sequential machine
   and reports the measured counts next to the predicted intervals. *)

let pp_prediction fmt (p : Costan.Eval.prediction) =
  Format.fprintf fmt "steps %a, data refs %a (%d activations%s)"
    Costan.Domain.pp_interval p.Costan.Eval.p_steps
    Costan.Domain.pp_interval
    (Costan.Footprint.data_total p.Costan.Eval.p_refs)
    p.Costan.Eval.p_evals
    (if p.Costan.Eval.p_exactness = Costan.Eval.Yes then ""
     else ", approximate")

let print_json v = print_string (Obs.Json.to_string v)

let file_report path query threshold budget json =
  let src = In_channel.(with_open_bin path input_all) in
  let an = Costan.Analyze.analyze (Prolog.Database.of_string src) in
  let predict q =
    Costan.Eval.predict ~budget an (Analysis.Analyze.entry_of_string q)
  in
  if json then begin
    let prediction =
      match query with
      | Some q -> [ ("prediction", Costan.Report.json_prediction (predict q)) ]
      | None -> []
    in
    print_json
      (Obs.Json.Obj
         (("predicates", Costan.Report.json_predicates an) :: prediction))
  end
  else begin
    Costan.Report.pp_costs ?threshold Format.std_formatter an;
    match query with
    | None -> ()
    | Some q -> (
      match predict q with
      | Ok p -> Format.printf "query: %a@." pp_prediction p
      | Error reason -> Format.printf "query: no bound (%s)@." reason)
  end

(* ------------------------------------------------------------------ *)

let benchmark_list () =
  Benchlib.Inputs.default_benchmarks () @ Benchlib.Large.population ()

let entry_class an (goal : Prolog.Term.t) =
  match Analysis.Depgraph.goal_key (Costan.Analyze.database an) goal with
  | Some key -> (
    match Costan.Analyze.find an key with
    | Some p -> p.Costan.Analyze.cls
    | None -> Costan.Domain.Unknown)
  | None -> Costan.Domain.Unknown

let bench_prediction budget (b : Benchlib.Programs.benchmark) =
  let an = Costan.Analyze.analyze (Prolog.Database.of_string b.src) in
  let goal = Analysis.Analyze.entry_of_string b.query in
  (entry_class an goal, Costan.Eval.predict ~budget an goal)

let bench_json measure budget (b : Benchlib.Programs.benchmark) =
  let cls, pred = bench_prediction budget b in
  let measured () =
    let r = Benchlib.Runner.run_wam b in
    let refs =
      List.filter_map
        (fun area ->
          let n = Trace.Areastats.refs r.Benchlib.Runner.area_stats area in
          if n > 0 then Some (Trace.Area.name area, Obs.Json.Int n) else None)
        Trace.Area.all
    in
    Obs.Json.Obj
      [
        ("steps", Obs.Json.Int r.Benchlib.Runner.inferences);
        ("refs", Obs.Json.Obj refs);
      ]
  in
  Obs.Json.Obj
    ([
       ("name", Obs.Json.String b.name);
       ("class", Obs.Json.String (Costan.Domain.cls_name cls));
       ("prediction", Costan.Report.json_prediction pred);
     ]
    @ if measure then [ ("measured", measured ()) ] else [])

let bench_text measure budget (b : Benchlib.Programs.benchmark) =
  let cls, pred = bench_prediction budget b in
  Format.printf "@.== %s: class %s@." b.name (Costan.Domain.cls_name cls);
  (match pred with
  | Ok p -> Format.printf "  predicted: %a@." pp_prediction p
  | Error reason -> Format.printf "  predicted: no bound (%s)@." reason);
  if measure then begin
    let r = Benchlib.Runner.run_wam b in
    Format.printf "  measured:  steps %d, data refs %d@."
      r.Benchlib.Runner.inferences r.Benchlib.Runner.data_refs;
    match pred with
    | Ok p ->
      List.iter
        (fun area ->
          let meas = Trace.Areastats.refs r.Benchlib.Runner.area_stats area in
          let prd = p.Costan.Eval.p_refs.(Trace.Area.to_int area) in
          if meas > 0 || not (Costan.Domain.is_zero prd) then
            Format.printf "    %-14s predicted %a, measured %d@."
              (Trace.Area.name area) Costan.Domain.pp_interval prd meas)
        Trace.Area.all
    | Error _ -> ()
  end

let bench_report measure budget json =
  if json then
    print_json
      (Obs.Json.Obj
         [
           ( "benchmarks",
             Obs.Json.List
               (List.map (bench_json measure budget) (benchmark_list ())) );
         ])
  else List.iter (bench_text measure budget) (benchmark_list ())

let run_cmd src_path benchmarks query threshold budget measure json =
  match (benchmarks, src_path) with
  | true, _ -> bench_report measure budget json
  | false, Some path -> file_report path query threshold budget json
  | false, None ->
    prerr_endline "costan: need a source file or --benchmarks";
    exit 2

open Cmdliner

let src_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Plain or annotated Prolog source file.")

let benchmarks_arg =
  Arg.(
    value & flag
    & info [ "benchmarks" ]
        ~doc:"Analyze the paper's benchmark suite instead of a file.")

let query_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "query" ] ~docv:"GOAL" ~doc:"Predict the cost of this query.")

let threshold_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "threshold" ] ~docv:"N"
        ~doc:
          "Spawn-overhead threshold in data references; adds a \
           granularity verdict column to the cost table.")

let budget_arg =
  Arg.(
    value
    & opt int Costan.Eval.default_budget
    & info [ "budget" ] ~docv:"N"
        ~doc:"Abstract-activation budget for the query evaluator.")

let measure_arg =
  Arg.(
    value & flag
    & info [ "measure" ]
        ~doc:
          "Also run each benchmark on the traced sequential WAM and \
           print measured counts next to the predictions.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON on stdout.")

let cmd =
  let doc = "static cost bounds and granularity analysis" in
  Cmd.v
    (Cmd.info "costan" ~doc)
    Term.(
      const run_cmd $ src_arg $ benchmarks_arg $ query_arg $ threshold_arg
      $ budget_arg $ measure_arg $ json_arg)

let () = Benchlib.Cli.eval cmd
