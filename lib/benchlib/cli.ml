(* Shared cmdliner vocabulary of the CLIs.

   certify and tracecheck parse the same argument families: a
   benchmark selection drawn from a pool, PE-count lists, the --quick
   trace-size switch, a seeded-defect selector, --verbose and --json
   FILE.  This module holds the converters, the argument builders
   (parameterized on the name pool and defaults), the helpers both
   tools repeat (resolving a selection against its pool, writing the
   JSON report) and [eval], which every CLI ends in.  The exit-status
   contract:

     0    success (certify, tracecheck: clean, or under --defect the
          defect escaped)
     1    certify, tracecheck: something was flagged (under --defect:
          detected)
     65   a typed program error -- syntax, load, CGE, compile or
          runtime -- or a damaged or foreign input file (trace,
          journal, memo snapshot), printed as one line (EX_DATAERR)
     123  the --json report could not be written
     124  usage error (cmdliner), such as a PE count outside 1..128
     125  internal error: an uncaught exception

   A CLI's own statuses stay in its header: rapwam_run 2 on "no",
   wamlint 1 and 2, cache_sweep 2, 4, 65 and 70, serve 4. *)

open Cmdliner

(* A strictly positive count (PE counts, violation caps). *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n ->
      Error
        (`Msg (Printf.sprintf "%d is not a positive count (expected >= 1)" n))
    | None -> Error (`Msg (Printf.sprintf "expected a positive count, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* A PE count the machine can run. *)
let pe_count =
  let hi = Wam.Machine.max_workers in
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= hi -> Ok n
    | _ ->
      Error (`Msg (Printf.sprintf "expected a PE count in 1..%d, got %S" hi s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let names_of pool =
  List.map (fun (b : Programs.benchmark) -> b.Programs.name) pool

let bench_arg ?(doc = "Benchmark(s) to analyze (default: all).") names =
  Arg.(
    value
    & opt (list (enum (List.map (fun n -> (n, n)) names))) []
    & info [ "b"; "bench" ] ~docv:"NAME[,NAME...]" ~doc)

let benchmarks_flag =
  Arg.(
    value & flag
    & info [ "benchmarks" ] ~doc:"Analyze every shipped benchmark (default).")

let pes_arg ?(doc = "PE counts the analysis is checked at.") default =
  Arg.(value & opt (list pe_count) default & info [ "p"; "pes" ] ~docv:"LIST" ~doc)

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Use the reduced benchmark inputs (CI-sized traces).")

let defect_arg ~doc names =
  Arg.(
    value
    & opt (some (enum (List.map (fun n -> (n, n)) names))) None
    & info [ "defect" ] ~docv:"NAME" ~doc)

let verbose_flag =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:"Print per-item decisions and all violations.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the reports as JSON.")

(* Resolve a --bench selection against the tool's pool (cmdliner's
   enum already rejected unknown names, but a name can still miss the
   pool of the selected tool or analysis). *)
let select ~pool names =
  let find n =
    List.find_opt (fun (b : Programs.benchmark) -> b.Programs.name = n) pool
  in
  match List.find_opt (fun n -> find n = None) names with
  | Some n -> Error ("benchmark " ^ n ^ " is not in this pool")
  | None -> Ok (if names = [] then pool else List.filter_map find names)

(* Write the --json report atomically and return the exit status:
   [status], or 123 (one line on stderr) when the write fails. *)
let finish ~json_out report status =
  let failed path why =
    Format.eprintf "cannot write %s: %s@." path why;
    Cmd.Exit.some_error
  in
  match json_out with
  | None -> status
  | Some path -> (
    try
      Resilience.Atomic_io.write_string path (Obs.Json.to_string report);
      status
    with
    | Sys_error msg -> failed path msg
    | Unix.Unix_error (err, _, _) -> failed path (Unix.error_message err))

let exit_dataerr = 65

(* The one line a typed error prints: a program error, or a durable
   input file that cannot be read or is damaged or foreign. *)
let error_message = function
  | Trace.Tracefile.Bad_file msg
  | Resilience.Journal.Journal_error msg
  | Memo.Snapshot.Snapshot_error msg ->
    Some msg
  | Trace.Tracefile.Trace_error { offset; reason } ->
    Some (Printf.sprintf "trace error at byte %d: %s" offset reason)
  | e -> Wam.Program.error_message e

(* Evaluate [cmd] and exit with [status] of its value.  A typed error
   escaping the command is one line on stderr and exit 65; any other
   exception is reported the way cmdliner reports it. *)
let run status cmd =
  let name = Cmd.name cmd in
  exit
    (match Cmd.eval_value' ~catch:false cmd with
    | `Ok v -> status v
    | `Exit code -> code
    | exception e -> (
      let bt = Printexc.get_raw_backtrace () in
      match error_message e with
      | Some msg ->
        Format.eprintf "%s: %s@." name msg;
        exit_dataerr
      | None ->
        Format.eprintf "%s: internal error, uncaught exception:@\n%s@\n%s@?"
          name (Printexc.to_string e)
          (Printexc.raw_backtrace_to_string bt);
        Cmd.Exit.internal_error))

(* As [Cmd.eval] and [Cmd.eval']: a unit command exits 0, an int
   command with its value. *)
let eval cmd = run (fun () -> Cmd.Exit.ok) cmd
let eval' cmd = run Fun.id cmd
