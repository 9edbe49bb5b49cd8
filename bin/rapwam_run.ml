(* rapwam_run: compile and run an annotated Prolog program.

     rapwam_run --query 'main(X)' file.pl
     rapwam_run --pes 8 --query 'tak(12,7,3,A)' tak.pl
     rapwam_run --sequential --stats --query ... file.pl
     rapwam_run --listing --query ... file.pl                          *)

let run_cmd src_path query pes sequential stats listing disasm_only prelude
    json_out profile det bind =
  let src =
    match src_path with
    | Some p -> In_channel.(with_open_bin p input_all)
    | None -> ""
  in
  let src = if prelude then Prolog.Prelude.source ^ "\n" ^ src else src in
  (* --bind rides on the det plan: the binding analysis seeds its
     conditionality half from the det compile's chain certificates *)
  let analysis =
    if det || bind then begin
      let db = Prolog.Database.of_string src in
      let summary =
        Analysis.Analyze.database
          ~entries:[ Analysis.Analyze.entry_of_string query ]
          db
      in
      Some (db, Analysis.Summary.patterns summary)
    end
    else None
  in
  let det_plan =
    Option.map
      (fun (_, patterns) -> Detan.Exclusion.plan ~patterns ())
      analysis
  in
  let bind_plan =
    match (bind, analysis) with
    | true, Some (db, patterns) ->
      let chains = ref [] in
      let (_ : Wam.Program.t) =
        Wam.Program.prepare ~parallel:(not sequential) ?det:det_plan ~chains
          ~src ~query ()
      in
      let query_db =
        Prolog.Database.of_string ("'$bindan_query' :- " ^ query ^ ".")
      in
      let absr =
        Bindan.Absint.analyze ~db ~query_db ~patterns ~chains:(List.rev !chains)
          ()
      in
      Some (Bindan.Plan.of_result absr).Bindan.Plan.plan
    | _ -> None
  in
  let prog =
    Wam.Program.prepare ~parallel:(not sequential) ?det:det_plan ?bind:bind_plan
      ~src ~query ()
  in
  if listing || disasm_only then begin
    Format.printf "%a@." Wam.Program.pp_listing prog;
    if disasm_only then exit 0
  end;
  let area_stats =
    Trace.Areastats.create ~pe_of_addr:Wam.Layout.pe_of_addr ()
  in
  let sink = Trace.Areastats.sink area_stats in
  let profiler =
    if profile then
      Some (Wam.Profile.create prog.Wam.Program.symbols prog.Wam.Program.code)
    else None
  in
  let sink =
    match profiler with
    | None -> sink
    | Some p -> Trace.Sink.tee sink (Wam.Profile.sink p)
  in
  let write_json path m rounds =
    let module J = Obs.Json in
    let counts =
      [
        ("instructions", J.Int (Wam.Machine.total_instr m));
        ("inferences", J.Int m.Wam.Machine.inferences);
        ("data_refs", J.Int (Trace.Areastats.data_refs area_stats));
        ("total_refs", J.Int (Trace.Areastats.total area_stats));
        ("parcalls", J.Int m.Wam.Machine.parcalls);
        ("goals_stolen", J.Int m.Wam.Machine.goals_stolen);
        ("cp_created", J.Int m.Wam.Machine.cp_created);
        ("cp_elided", J.Int m.Wam.Machine.cp_elided);
        ("trail_elided", J.Int m.Wam.Machine.trail_elided);
        ("deref_skipped", J.Int m.Wam.Machine.deref_skipped);
        ("rounds", J.Int rounds);
      ]
    in
    let profile =
      match profiler with
      | None -> []
      | Some p -> [ ("profile", Wam.Profile.to_json p) ]
    in
    Resilience.Atomic_io.write_string path
      (J.to_string (J.Obj (counts @ profile)))
  in
  let report_machine m rounds =
    Option.iter (fun path -> write_json path m rounds) json_out;
    Option.iter
      (fun p ->
        Format.printf "@.-- per-predicate profile --@.%a" Wam.Profile.pp p)
      profiler;
    if stats then begin
      Format.printf "@.-- statistics --@.";
      Format.printf "instructions : %d@." (Wam.Machine.total_instr m);
      Format.printf "inferences   : %d@." m.Wam.Machine.inferences;
      Format.printf "data refs    : %d@."
        (Trace.Areastats.data_refs area_stats);
      Format.printf "total refs   : %d@." (Trace.Areastats.total area_stats);
      Format.printf "parcalls     : %d@." m.Wam.Machine.parcalls;
      Format.printf "goals stolen : %d@." m.Wam.Machine.goals_stolen;
      Format.printf "cp created   : %d@." m.Wam.Machine.cp_created;
      Format.printf "cp elided    : %d@." m.Wam.Machine.cp_elided;
      Format.printf "trail elided : %d@." m.Wam.Machine.trail_elided;
      Format.printf "deref skipped: %d@." m.Wam.Machine.deref_skipped;
      Format.printf "rounds       : %d@." rounds;
      Format.printf "%a@." Trace.Areastats.pp area_stats;
      if Wam.Machine.n_workers m > 1 then begin
        Format.printf "-- per PE --@.%-4s %10s %10s %10s %10s@." "PE"
          "instr" "idle" "wait" "heap used";
        Array.iter
          (fun w ->
            Format.printf "%-4d %10d %10d %10d %10d@." w.Wam.Machine.id
              w.Wam.Machine.instr_count w.Wam.Machine.idle_cycles
              w.Wam.Machine.wait_cycles (Wam.Machine.heap_used w))
          m.Wam.Machine.workers
      end;
      Format.printf "-- instruction mix --@.%a@."
        (fun fmt () -> Stats.Freq.pp fmt m.Wam.Machine.opcode_freq)
        ()
    end
  in
  let print_result result =
    match result with
    | Wam.Seq.Failure ->
      Format.printf "no@.";
      exit 2
    | Wam.Seq.Success [] -> Format.printf "yes@."
    | Wam.Seq.Success bindings ->
      List.iter
        (fun (v, t) ->
          Format.printf "%s = %s@." v (Prolog.Pretty.to_string t))
        bindings
  in
  if sequential || pes = 1 then begin
    if sequential then begin
      let result, m = Wam.Seq.run ~sink prog in
      print_result result;
      report_machine m m.Wam.Machine.steps
    end
    else begin
      let result, sim = Rapwam.Sim.run ~sink ~n_workers:1 prog in
      print_result result;
      report_machine sim.Rapwam.Sim.m sim.Rapwam.Sim.rounds
    end
  end
  else begin
    let result, sim = Rapwam.Sim.run ~sink ~n_workers:pes prog in
    print_result result;
    report_machine sim.Rapwam.Sim.m sim.Rapwam.Sim.rounds
  end

open Cmdliner

let src_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Annotated Prolog source file (optional).")

let query_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"GOAL" ~doc:"The query to run.")

let pes_arg =
  Arg.(
    value & opt Benchlib.Cli.pe_count 1
    & info [ "p"; "pes" ] ~docv:"N" ~doc:"Number of RAP-WAM workers (PEs).")

let seq_arg =
  Arg.(
    value & flag
    & info [ "sequential" ]
        ~doc:"Compile and run as a plain sequential WAM (CGEs become ',').")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print execution statistics.")

let listing_arg =
  Arg.(value & flag & info [ "listing" ] ~doc:"Print the compiled WAM code.")

let disasm_arg =
  Arg.(
    value & flag
    & info [ "disasm-only" ] ~doc:"Print the compiled code and exit.")

let prelude_arg =
  Arg.(
    value & flag
    & info [ "prelude" ]
        ~doc:"Preload the list/arithmetic prelude (append/3, member/2, ...).")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write run statistics (instructions, inferences, references, \
           parcalls, ...) as JSON; the file is written atomically (tmp + \
           fsync + rename), so it is never observed half-written.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Collect per-predicate dynamic counters (calls, instructions, \
           per-area data references) from the trace and print them; with \
           $(b,--json) they are also recorded under \"profile\".")

let det_arg =
  Arg.(
    value & flag
    & info [ "det" ]
        ~doc:
          "Run the static determinacy analysis first and compile certified \
           try chains choice-point free (try/retry/trust with the shallow \
           chain attribute: shallow backtracking).  The per-predicate \
           profile and the \
           cp_created/cp_elided counters quantify the effect.")

let bind_arg =
  Arg.(
    value & flag
    & info [ "bind" ]
        ~doc:
          "Run the static binding analysis on top of $(b,--det) (implied) \
           and compile certified head arguments, puts and builtins with \
           the specialized trail-free / deref-free forms.  The \
           trail_elided/deref_skipped counters and the per-predicate \
           profile quantify the effect.")

let cmd =
  let doc = "run annotated Prolog on the RAP-WAM simulator" in
  Cmd.v
    (Cmd.info "rapwam_run" ~doc)
    Term.(
      const run_cmd $ src_arg $ query_arg $ pes_arg $ seq_arg $ stats_arg
      $ listing_arg $ disasm_arg $ prelude_arg $ json_arg $ profile_arg
      $ det_arg $ bind_arg)

let () = Benchlib.Cli.eval cmd
