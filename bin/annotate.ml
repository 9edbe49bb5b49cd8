(* annotate: automatic CGE annotation of a plain Prolog program.

     annotate program.pl                 -- print the &-annotated source
     annotate --run 'main(X)' program.pl -- annotate, then run on 4 PEs
     annotate --granularity 150 p.pl     -- cost-based granularity control
     annotate --dump-costs p.pl          -- print the cost table to stderr

   By default a global groundness/sharing analysis runs first: mode
   declarations (`:- mode f(+, -, ?).`) and the --run query seed the
   interprocedural fixpoint, and the inferred call/success patterns
   let the annotator drop run-time groundness/independence checks.
   --no-analysis falls back to the purely local annotator.

   With --granularity N the static cost analysis (lib/costan) also
   runs: parallel groups whose arms are all provably cheaper than N
   data references are emitted sequentially, and arms whose cost
   depends on an input size get a size_ge/2 guard in the CGE
   condition. *)

(* Annotate once; [discharged] is what the global analysis saved over
   a pattern-less annotation of the same program (0 without it). *)
let annotate_db ~no_analysis ~dump ~granularity ~run_query db =
  let granularity =
    match granularity with
    | None -> None
    | Some threshold ->
      let an = Costan.Analyze.analyze db in
      Some (Costan.Analyze.annotator an ~threshold)
  in
  if no_analysis then
    let annotated, stats = Prolog.Annotate.database_stats ?granularity db in
    (annotated, stats, 0)
  else
    let entries =
      match run_query with
      | None -> []
      | Some q -> [ Analysis.Analyze.entry_of_string q ]
    in
    let summary = Analysis.Analyze.database ~entries db in
    if dump then Format.eprintf "%a@." Analysis.Summary.pp summary;
    let patterns = Analysis.Summary.patterns summary in
    let annotated, stats =
      Prolog.Annotate.database_stats ~patterns ?granularity db
    in
    let _, local = Prolog.Annotate.database_stats db in
    ( annotated,
      stats,
      max 0
        (local.Prolog.Annotate.checks_emitted
       - stats.Prolog.Annotate.checks_emitted) )

let run_cmd src_path run_query pes no_analysis dump granularity dump_costs =
  let src = In_channel.(with_open_bin src_path input_all) in
  let db = Prolog.Database.of_string src in
  if dump_costs then begin
    let an = Costan.Analyze.analyze db in
    Costan.Report.pp_costs ?threshold:granularity Format.err_formatter an
  end;
  let annotated, stats, discharged =
    annotate_db ~no_analysis ~dump ~granularity ~run_query db
  in
  Format.printf "%a@." Prolog.Annotate.pp_database annotated;
  Format.eprintf
    "%% %d parallel call(s), %d check(s) emitted, %d discharged by \
     analysis, %d group(s) sequentialized by cost@."
    (Prolog.Database.parallel_call_count annotated)
    stats.Prolog.Annotate.checks_emitted discharged
    stats.Prolog.Annotate.sequentialized;
  match run_query with
  | None -> ()
  | Some query ->
    (* compiling copies the database, so the printed one runs as is *)
    let prog = Wam.Program.of_database ~parallel:true annotated ~query () in
    let sim = Rapwam.Sim.create ~n_workers:pes prog in
    let result = Rapwam.Sim.run_prepared sim prog in
    (match result with
    | Wam.Seq.Failure -> Format.printf "no@."
    | Wam.Seq.Success [] -> Format.printf "yes@."
    | Wam.Seq.Success bindings ->
      List.iter
        (fun (v, t) ->
          Format.printf "%s = %s@." v (Prolog.Pretty.to_string t))
        bindings);
    Format.eprintf
      "%% %d PEs: %d rounds, %d parcalls, %d goals stolen@." pes
      sim.Rapwam.Sim.rounds sim.Rapwam.Sim.m.Wam.Machine.parcalls
      sim.Rapwam.Sim.m.Wam.Machine.goals_stolen

open Cmdliner

let src_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Plain Prolog source file.")

let run_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "run" ] ~docv:"GOAL" ~doc:"Also run this query in parallel.")

let pes_arg =
  Arg.(
    value & opt Benchlib.Cli.pe_count 4
    & info [ "p"; "pes" ] ~docv:"N" ~doc:"Workers.")

let no_analysis_arg =
  Arg.(
    value & flag
    & info [ "no-analysis" ]
        ~doc:
          "Skip the global groundness/sharing analysis; annotate with \
           local information only (the pre-analysis behavior).")

let dump_arg =
  Arg.(
    value & flag
    & info [ "dump-analysis" ]
        ~doc:"Print the inferred call/success patterns to stderr.")

let granularity_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "granularity" ] ~docv:"N"
        ~doc:
          "Enable cost-based granularity control with a spawn-overhead \
           threshold of N data references: provably-small parallel \
           groups are sequentialized and data-dependent ones get \
           size_ge/2 guards.")

let dump_costs_arg =
  Arg.(
    value & flag
    & info [ "dump-costs" ]
        ~doc:
          "Print the per-predicate cost table (class, decreasing \
           argument, unit cost, determinacy) to stderr.")

let cmd =
  let doc = "insert CGE annotations via independence analysis" in
  Cmd.v
    (Cmd.info "annotate" ~doc)
    Term.(
      const run_cmd $ src_arg $ run_arg $ pes_arg $ no_analysis_arg
      $ dump_arg $ granularity_arg $ dump_costs_arg)

let () = Benchlib.Cli.eval cmd
