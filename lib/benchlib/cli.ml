(* Shared cmdliner vocabulary of the checking CLIs.

   certify and tracecheck parse the same argument families: a
   benchmark selection drawn from a pool, PE-count lists, the --quick
   trace-size switch, a seeded-defect selector, --verbose and --json
   FILE.  This module holds the converters, the argument builders
   (parameterized on the name pool and defaults), the helpers both
   tools repeat (resolving a selection against its pool, writing the
   JSON report) and the exit-status convention:

     0    clean (or, under --defect, the defect escaped)
     1    something was flagged (under --defect: detected)
     123  the --json report could not be written
     124  usage error (cmdliner)
     125  internal error (cmdliner) *)

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
  Arg.(value & opt (list pos_int) default & info [ "p"; "pes" ] ~docv:"LIST" ~doc)

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

let eval cmd = exit (Cmd.eval' cmd)
