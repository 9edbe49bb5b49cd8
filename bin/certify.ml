(* certify: run a static analysis that changes the emulator's reference
   stream through the certification harness.

     certify --analysis refmap --benchmarks --pes 1,4,8
     certify --analysis detan --bench qsort --json BENCH_detan.json
     certify --analysis bindan --quick --pes 4 --defect cond_blind
     certify --analysis refmap --bench deriv --dump

   For each selected program (the benchmarks plus the analysis'
   fixtures by default) the harness runs the front end, the base
   compile, the analysis, the variant compile with wamlint over it,
   and both machines at each PE count: answer sets must agree, the
   analysis' oracle replays the base trace and tracecheck replays the
   variant trace.

   --defect weakens the analysis first and runs the selection plus the
   defect's probe programs; the exit status is 1 exactly when the
   defect's detector fired.  Without --defect it is 1 exactly when a
   check flagged something.  --dump prints what the analysis derived
   per predicate and stops.  Benchlib.Cli lists the error codes. *)

let analyses : (module Certification.ANALYSIS) list =
  [ (module Refmap.Instance); (module Detan.Instance); (module Bindan.Instance) ]

let certify (module A : Certification.ANALYSIS) bench_names pes quick defect dump
    verbose json_out =
  let module H = Certification.Make (A) in
  let pool =
    (if quick then Benchlib.Inputs.small_benchmarks ()
     else Benchlib.Inputs.default_benchmarks ())
    @ A.fixtures
  in
  let defect =
    match defect with
    | None -> Ok None
    | Some name -> (
      match H.find_defect name with
      | Some d -> Ok (Some d)
      | None ->
        Error
          (Printf.sprintf "defect %s is not one of %s's (%s)" name A.name
             (String.concat ", "
                (List.map (fun (d : Certification.defect) -> d.name) A.defects))))
  in
  match (Benchlib.Cli.select ~pool bench_names, defect) with
  | Error msg, _ | _, Error msg -> `Error (true, msg)
  | Ok benchmarks, Ok defect when dump ->
    List.iter
      (fun (b : Benchlib.Programs.benchmark) ->
        Format.printf "== %s ==@.%a@?" b.name A.dump (H.analyze ?defect b).a)
      benchmarks;
    `Ok 0
  | Ok benchmarks, Ok defect ->
    let programs =
      match defect with None -> benchmarks | Some d -> H.with_probes d benchmarks
    in
    let reports =
      List.map
        (fun b ->
          let r = H.run ?defect ~pes b in
          H.pp_report ~verbose Format.std_formatter r;
          r)
        programs
    in
    let flagged =
      match defect with
      | None -> not (List.for_all Certification.clean reports)
      | Some d -> List.exists (Certification.flagged d) reports
    in
    (match defect with
    | None -> if flagged then Format.printf "FAIL: a check flagged a program@."
    | Some d ->
      Format.printf "seeded defect %s %s by the %s check@." d.name
        (if flagged then "detected" else "MISSED: escaped")
        (Certification.detector_name d.detector));
    `Ok
      (Benchlib.Cli.finish ~json_out (H.json_of_reports reports)
         (if flagged then 1 else 0))

open Cmdliner

let names f = List.concat_map f analyses

let analysis_arg =
  Arg.(
    required
    & opt
        (some
           (enum
              (List.map
                 (fun (module A : Certification.ANALYSIS) ->
                   (A.name, (module A : Certification.ANALYSIS)))
                 analyses)))
        None
    & info [ "analysis" ] ~docv:"NAME"
        ~doc:"The analysis to certify: refmap, detan or bindan.")

let dump_flag =
  Arg.(
    value & flag
    & info [ "dump" ]
        ~doc:
          "Print what the analysis derived per predicate (refmap: area/mode \
           summaries and group decisions; detan: success-count grades; \
           bindan: binding facts) and stop.")

let cmd =
  let doc =
    "certify a reference-stream analysis (refmap, detan, bindan) against \
     its trace-replay oracle, answer comparison, wamlint and tracecheck"
  in
  Cmd.v
    (Cmd.info "certify" ~doc)
    Term.(
      ret
        (const
           (fun analysis bench _benchmarks pes quick defect dump verbose json ->
             certify analysis bench pes quick defect dump verbose json)
      $ analysis_arg
      $ Benchlib.Cli.bench_arg
          ~doc:"Benchmark(s) to analyze (default: all, plus the fixtures)."
          (Benchlib.Programs.all_names
          @ names (fun (module A : Certification.ANALYSIS) ->
                Benchlib.Cli.names_of A.fixtures))
      $ Benchlib.Cli.benchmarks_flag
      $ Benchlib.Cli.pes_arg
          ~doc:"PE counts the machines run and the oracle is checked at."
          Certification.default_pes
      $ Benchlib.Cli.quick_arg
      $ Benchlib.Cli.defect_arg
          ~doc:
            "Weaken the analysis with the named seeded defect first and run \
             the selection plus the defect's probes; exit 1 when its detector \
             fires, 0 when it escapes.  A defect of another analysis is a \
             usage error."
          (names (fun (module A : Certification.ANALYSIS) ->
               List.map (fun (d : Certification.defect) -> d.name) A.defects))
      $ dump_flag $ Benchlib.Cli.verbose_flag $ Benchlib.Cli.json_arg))

let () = Benchlib.Cli.eval' cmd
