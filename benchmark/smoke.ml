(* The benchmark's test-suite check, run by `dune runtest`:

     smoke.exe MAIN_EXE BENCHMARK_JSON

   Every workload runs at --smoke scale twice untraced and once traced.
   Each run must exit 0 and end in a well-formed result line with no
   failed operation; the untraced runs must print identical digests;
   and the metric names and units printed must be exactly the
   end-to-end (untraced) or per-layer (traced) metrics BENCHMARK.json
   declares. *)

let workloads = [ "fig4-sweep"; "trace-gen"; "serve-hot"; "serve-churn" ]
let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_lines ic in
  (Unix.close_process_in ic, lines)

let declared bench key =
  match Json.member key bench with
  | Some (Json.Arr ms) ->
    List.filter_map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
        | _ -> None)
      ms
  | _ -> []

let check_result what lines expected =
  match List.rev lines with
  | [] -> problem "%s: no output" what
  | last :: _ -> (
    match Json.of_string last with
    | exception Json.Parse_error e -> problem "%s: result line is not JSON (%s)" what e
    | Json.Obj kvs as r ->
      if List.map fst kvs <> [ "correct"; "attempted"; "failed"; "metrics" ] then
        problem "%s: result keys are %s" what (String.concat "," (List.map fst kvs));
      (match (Json.member "correct" r, Json.member "failed" r, Json.member "attempted" r) with
      | Some (Json.Bool true), Some (Json.Num 0.), Some (Json.Num a) when a >= 1. -> ()
      | _ -> problem "%s: not correct, or operations failed: %s" what last);
      (match Json.member "metrics" r with
      | Some (Json.Obj ms) ->
        let printed =
          List.map
            (fun (n, v) ->
              (match Json.member "value" v with
              | Some (Json.Num _) -> ()
              | _ -> problem "%s: metric %s has no numeric value" what n);
              (n, match Json.member "unit" v with Some (Json.Str u) -> u | _ -> "?"))
            ms
        in
        if List.sort compare printed <> List.sort compare expected then
          problem "%s: printed metrics differ from BENCHMARK.json" what
      | _ -> problem "%s: no metrics object" what)
    | _ -> problem "%s: result line is not an object" what)

let digest_of lines =
  List.find_opt (fun l -> String.length l > 7 && String.sub l 0 7 = "digest ") lines

let () =
  let exe, bench_file =
    match Sys.argv with
    | [| _; exe; bench |] ->
      ((if Filename.is_implicit exe then Filename.concat Filename.current_dir_name exe else exe), bench)
    | _ -> prerr_endline "usage: smoke.exe MAIN_EXE BENCHMARK_JSON"; exit 2
  in
  let bench = Json.of_string (In_channel.with_open_bin bench_file In_channel.input_all) in
  let e2e = declared bench "end_to_end" and per_layer = declared bench "per_layer" in
  List.iter
    (fun w ->
      let untraced i =
        let what = Printf.sprintf "%s untraced #%d" w i in
        let status, lines = run exe [ "--workload"; w; "--smoke"; "--trace"; "0" ] in
        if status <> Unix.WEXITED 0 then problem "%s: did not exit 0" what;
        check_result what lines e2e;
        digest_of lines
      in
      let d1 = untraced 1 and d2 = untraced 2 in
      if d1 = None || d1 <> d2 then problem "%s: digests differ between two runs" w;
      let what = w ^ " traced" in
      let status, lines =
        run exe [ "--workload"; w; "--smoke"; "--trace"; "1" ]
      in
      if status <> Unix.WEXITED 0 then problem "%s: did not exit 0" what;
      check_result what lines per_layer;
      Printf.printf "smoke %s: %s\n%!" w (Option.value ~default:"no digest" d1))
    workloads;
  match !problems with
  | [] -> print_endline "smoke: all workloads clean"
  | ps ->
    List.iter prerr_endline (List.rev ps);
    exit 1
