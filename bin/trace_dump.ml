(* trace_dump: run a benchmark (or a program) and dump its tagged
   memory-reference trace in the text format of the paper's trace
   files: one reference per line, `PE op AREA address`.

     trace_dump --bench qsort --pes 4 --limit 200
     trace_dump --bench deriv --area trail
     trace_dump --query 'tak(8,4,2,A)' --src tak.pl --pes 2 -o trace.txt *)

let run_cmd bench_name src_path query pes limit out_path include_code binary
    quick area =
  let bench =
    match (bench_name, query) with
    | Some name, _ -> Benchlib.Inputs.benchmark ~quick name
    | None, Some q ->
      {
        Benchlib.Programs.name = "user";
        src =
          (match src_path with
          | Some p -> In_channel.(with_open_bin p input_all)
          | None -> "");
        query = q;
        answer_var = "";
      }
    | None, None ->
      prerr_endline "trace_dump: need --bench or --query";
      exit 1
  in
  let prog =
    Wam.Program.prepare ~parallel:true ~src:bench.Benchlib.Programs.src
      ~query:bench.Benchlib.Programs.query ()
  in
  let buf = Trace.Sink.Buffer_sink.create ~capacity:(1 lsl 16) () in
  let sink =
    if include_code then Trace.Sink.buffer buf
    else Trace.Sink.data_only (Trace.Sink.buffer buf)
  in
  let _result, _sim = Rapwam.Sim.run ~sink ~n_workers:pes prog in
  if binary then begin
    if area <> None then begin
      prerr_endline "trace_dump: --area filters the text dump, not --binary";
      exit 1
    end;
    match out_path with
    | None ->
      prerr_endline "trace_dump: --binary needs --output";
      exit 1
    | Some p ->
      Trace.Tracefile.write p buf;
      Printf.eprintf "wrote %d references to %s\n"
        (Trace.Sink.Buffer_sink.length buf)
        p;
      exit 0
  end;
  let oc = match out_path with Some p -> open_out p | None -> stdout in
  let count = ref 0 in
  (try
     Trace.Sink.Buffer_sink.iter
       (fun r ->
         if match area with Some a -> r.Trace.Ref_record.area = a | None -> true
         then begin
           if limit > 0 && !count >= limit then raise Exit;
           incr count;
           Printf.fprintf oc "%d %c %-18s %d\n" r.Trace.Ref_record.pe
             (match r.Trace.Ref_record.op with
             | Trace.Ref_record.Read -> 'R'
             | Trace.Ref_record.Write -> 'W')
             (Trace.Area.name r.Trace.Ref_record.area)
             r.Trace.Ref_record.addr
         end)
       buf
   with Exit -> ());
  if out_path <> None then close_out oc;
  Printf.eprintf "dumped %d of %d references\n" !count
    (Trace.Sink.Buffer_sink.length buf)

open Cmdliner

let bench_arg =
  Arg.(
    value
    & opt (some (enum (List.map (fun n -> (n, n)) Benchlib.Programs.all_names)))
        None
    & info [ "b"; "bench" ] ~docv:"NAME"
        ~doc:"Built-in benchmark (deriv, tak, qsort, matrix).")

let src_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "src" ] ~docv:"FILE" ~doc:"Prolog source for --query mode.")

let query_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"GOAL" ~doc:"Query (alternative to --bench).")

let pes_arg =
  Arg.(
    value & opt Benchlib.Cli.pe_count 4
    & info [ "p"; "pes" ] ~docv:"N" ~doc:"Workers.")

let limit_arg =
  Arg.(
    value & opt int 0
    & info [ "n"; "limit" ] ~docv:"N" ~doc:"Dump at most N references (0 = all).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default stdout).")

let code_arg =
  Arg.(
    value & flag
    & info [ "include-code" ] ~doc:"Include instruction fetches in the dump.")

let binary_arg =
  Arg.(
    value & flag
    & info [ "binary" ]
        ~doc:"Write a binary trace file (for cache_sweep --trace-file).")

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Use the reduced benchmark inputs (small, seconds-long runs).")

let area_arg =
  Arg.(
    value
    & opt
        (some
           (enum (List.map (fun a -> (Trace.Area.slug a, a)) Trace.Area.all)))
        None
    & info [ "area" ] ~docv:"SLUG"
        ~doc:
          "Dump only references to the named storage area (e.g. trail, \
           heap, choice_point, env_pvar); --limit counts the filtered \
           references.")

let cmd =
  let doc = "dump a tagged RAP-WAM memory-reference trace" in
  Cmd.v
    (Cmd.info "trace_dump" ~doc)
    Term.(
      const run_cmd $ bench_arg $ src_arg $ query_arg $ pes_arg $ limit_arg
      $ out_arg $ code_arg $ binary_arg $ quick_arg $ area_arg)

let () = Benchlib.Cli.eval cmd
