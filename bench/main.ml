(* Benchmark harness entry point.

     dune exec bench/main.exe              -- all tables and figures
     dune exec bench/main.exe -- table2    -- one experiment
     dune exec bench/main.exe -- --quick   -- smaller inputs
     dune exec bench/main.exe -- --jobs 4  -- parallel emulation/sweeps

   Experiments: table1 table2 table3 figure2 figure4 mlips timing
                ablation-tags ablation-sched ablation-line ablation-alloc
                ablation-granularity tracecheck costan server refmap detan
                bindan availability

   The emulation runs and cache sweeps the experiments share are
   pre-generated on the engine's domain pool (--jobs N, default the
   host's recommended domain count); the tables themselves are then
   printed sequentially from the memo, so output is identical for any
   --jobs value.  The exception is `server`, which measures live
   concurrent domains: its answers and table contents are
   seed-deterministic, but throughput/latency lines and the
   race-dependent duplicate-dedup counter vary run to run. *)

let usage () =
  print_endline
    "usage: main.exe [--quick] [--jobs N] [table1|table2|table3|\n\
    \       figure2|figure4|mlips|ablation-tags|ablation-sched|\n\
    \       ablation-line|ablation-alloc|tracecheck|costan|server|\n\
    \       refmap|detan|bindan|availability]...";
  exit 1

let parse_args args =
  let quick = ref false in
  let jobs = ref None in
  let wanted = ref [] in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      go rest
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := Some n;
        go rest
      | _ ->
        Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
        usage ())
    | "--jobs" :: [] ->
      Printf.eprintf "--jobs expects an argument\n";
      usage ()
    | arg :: rest ->
      (match String.index_opt arg '=' with
      | Some i when String.sub arg 0 i = "--jobs" ->
        go ("--jobs" :: String.sub arg (i + 1) (String.length arg - i - 1)
            :: rest)
      | _ ->
        wanted := arg :: !wanted;
        go rest)
  in
  go args;
  (!quick, !jobs, List.rev !wanted)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick, jobs, wanted = parse_args args in
  let setup =
    if quick then Experiments.quick_setup ?jobs ()
    else Experiments.full_setup ?jobs ()
  in
  let dispatch = function
    | "table1" -> Experiments.table1 setup
    | "table2" -> Experiments.table2 setup
    | "table3" -> Experiments.table3 setup
    | "figure2" -> Experiments.figure2 setup
    | "figure2-all" -> Experiments.figure2_all setup
    | "figure4" -> Experiments.figure4 setup
    | "mlips" -> Experiments.mlips setup
    | "timing" -> Experiments.timing setup
    | "timing-integrated" -> Experiments.timing_integrated setup
    | "annotation" -> Experiments.annotation setup
    | "ablation-tags" -> Experiments.ablation_tags setup
    | "ablation-sched" -> Experiments.ablation_sched setup
    | "ablation-line" -> Experiments.ablation_line setup
    | "ablation-alloc" -> Experiments.ablation_alloc setup
    | "ablation-granularity" -> Experiments.ablation_granularity setup
    | "tracecheck" -> Experiments.tracecheck setup
    | "costan" -> Experiments.costan setup
    | "refmap" -> Experiments.refmap setup
    | "detan" -> Experiments.detan setup
    | "bindan" -> Experiments.bindan setup
    | "server" -> Experiments.server setup
    | "availability" -> Experiments.availability setup
    | "all" -> Experiments.all setup
    | other ->
      Printf.eprintf "unknown experiment %S\n" other;
      usage ()
  in
  let names = match wanted with [] -> [ "all" ] | names -> names in
  (* parallel pre-generation of every emulation run the selected
     experiments will read; printing below stays sequential *)
  Experiments.prewarm setup names;
  match wanted with
  | [] ->
    Format.printf
      "RAP-WAM memory-performance reproduction (Hermenegildo & Tick, ICPP \
       1988)@.";
    Experiments.all setup
  | names -> List.iter dispatch names
