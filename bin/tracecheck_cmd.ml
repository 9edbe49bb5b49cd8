(* tracecheck: replay RAP-WAM traces through the happens-before race
   detector and coherence-invariant sanitizer.

     tracecheck --benchmarks --pes 1,4,8
     tracecheck --bench qsort --pes 8 --json out.json
     tracecheck --bench deriv --pes 4 --defect dropped-join
     tracecheck --trace-file trace.bin

   For each (benchmark, mode, PE count) the tool generates the trace
   (sequential WAM when the PE count is 0, RAP-WAM otherwise), runs
   the checker, and prints a one-line verdict; --defect damages each
   trace first and expects the checker to object.  Exit status is 1
   exactly when a trace had violations (under --defect: the damage
   was detected), 0 otherwise; see Benchlib.Cli for the error
   codes. *)

let check_one ~label ~max_violations buf =
  let t0 = Unix.gettimeofday () in
  let s = Tracecheck.check_buffer ~max_violations buf in
  let dt = Unix.gettimeofday () -. t0 in
  Format.printf "%-24s %a  (%.3fs)@." label Tracecheck.pp_summary s dt;
  s

let run_cmd bench_names pes_list seq_only par_only quick defect trace_file
    max_violations json_out =
  let json_rows = ref [] in
  let dirty = ref 0 in
  (* traces with violations *)
  let missed = ref 0 in
  (* damaged traces the checker failed to flag *)
  let damage buf =
    match defect with None -> buf | Some d -> Tracecheck.Defects.apply d buf
  in
  let judge ~label summary =
    json_rows := Tracecheck.json_of_summary ~label summary :: !json_rows;
    if not (Tracecheck.ok summary) then incr dirty;
    match defect with
    | None ->
      if not (Tracecheck.ok summary) then
        Format.printf "  FAIL: violations in %s@." label
    | Some d ->
      if Tracecheck.ok summary then begin
        incr missed;
        Format.printf "  MISSED: seeded defect %s escaped detection in %s@."
          d label
      end
  in
  let check_benchmarks benchmarks =
    let modes =
      (if par_only then [] else [ `Seq ])
      @ if seq_only then [] else [ `Par ]
    in
    List.iter
      (fun (b : Benchlib.Programs.benchmark) ->
        List.iter
          (fun mode ->
            let pes_of_mode =
              match mode with `Seq -> [ 0 ] | `Par -> pes_list
            in
            List.iter
              (fun n_pes ->
                let label =
                  if n_pes = 0 then
                    Printf.sprintf "%s/wam" b.Benchlib.Programs.name
                  else
                    Printf.sprintf "%s/rapwam@%dpe" b.Benchlib.Programs.name
                      n_pes
                in
                let result =
                  if n_pes = 0 then Benchlib.Runner.run_wam b
                  else Benchlib.Runner.run_rapwam ~n_pes b
                in
                let buf = damage result.Benchlib.Runner.trace in
                judge ~label (check_one ~label ~max_violations buf))
              pes_of_mode)
          modes)
      benchmarks
  in
  let checked =
    match trace_file with
    | Some path ->
      let buf = damage (Trace.Tracefile.read path) in
      Ok (judge ~label:path (check_one ~label:path ~max_violations buf))
    | None ->
      let pool =
        if quick then Benchlib.Inputs.small_benchmarks ()
        else Benchlib.Inputs.default_benchmarks ()
      in
      Result.map check_benchmarks (Benchlib.Cli.select ~pool bench_names)
  in
  match checked with
  | Error msg -> `Error (true, msg)
  | Ok () ->
    if !missed > 0 then
      Format.printf "%d damaged trace(s) escaped detection@." !missed;
    if !dirty > 0 && defect = None then
      Format.printf "%d trace(s) had violations@." !dirty;
    `Ok
      (Benchlib.Cli.finish ~json_out
         ("[\n  " ^ String.concat ",\n  " (List.rev !json_rows) ^ "\n]\n")
         (if !dirty > 0 then 1 else 0))

open Cmdliner

let seq_arg =
  Arg.(
    value & flag
    & info [ "seq-only" ] ~doc:"Check only the sequential WAM traces.")

let par_arg =
  Arg.(
    value & flag
    & info [ "par-only" ] ~doc:"Check only the parallel RAP-WAM traces.")

let trace_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "trace-file" ] ~docv:"FILE"
        ~doc:"Check a trace written by trace_dump --binary instead.")

let max_violations_arg =
  Arg.(
    value & opt Benchlib.Cli.pos_int 50
    & info [ "max-violations" ] ~docv:"N"
        ~doc:"Retain at most N violations per trace in the output.")

let cmd =
  let doc =
    "happens-before race detector and invariant checker for RAP-WAM traces"
  in
  Cmd.v
    (Cmd.info "tracecheck" ~doc)
    Term.(
      ret
        (const
           (fun bench _benchmarks pes seq par quick defect trace_file maxv json ->
             run_cmd bench pes seq par quick defect trace_file maxv json)
      $ Benchlib.Cli.bench_arg ~doc:"Benchmark(s) to check (default: all)."
          Benchlib.Programs.all_names
      $ Benchlib.Cli.benchmarks_flag
      $ Benchlib.Cli.pes_arg
          ~doc:"PE counts for the parallel (RAP-WAM) traces." [ 1; 2; 4; 8 ]
      $ seq_arg $ par_arg $ Benchlib.Cli.quick_arg
      $ Benchlib.Cli.defect_arg
          ~doc:
            "Damage each trace with the named seeded defect first and \
             expect the checker to flag it (exit 1 when it does, 0 when \
             every damaged trace comes back clean)."
          (List.map
             (fun (d : Tracecheck.Defects.defect) -> d.name)
             Tracecheck.Defects.all)
      $ trace_file_arg $ max_violations_arg $ Benchlib.Cli.json_arg))

let () = Benchlib.Cli.eval cmd
