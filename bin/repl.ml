(* repl: an interactive toplevel for the RAP-WAM simulator.

     rapwam> [file.pl].          consult a file
     rapwam> ?- tak(12,7,3,A).   run a query (or just tak(12,7,3,A).)
     rapwam> :pes 8              set the number of PEs
     rapwam> :sequential         toggle plain-WAM mode
     rapwam> :stats              toggle per-query statistics
     rapwam> :listing            disassemble the current program
     rapwam> :annotate           auto-annotate the consulted program
     rapwam> :help  :quit                                              *)

type state = {
  mutable sources : (string * string) list; (* file, text; newest last *)
  mutable pes : int;
  mutable sequential : bool;
  mutable stats : bool;
  mutable all_solutions : bool;
  mutable time : bool; (* per-query wall clock + per-predicate profile *)
}

let program_text st = String.concat "\n" (List.map snd st.sources)

let consult st path =
  match In_channel.(with_open_bin path input_all) with
  | text ->
    (* verify it loads before keeping it *)
    (try
       ignore (Prolog.Database.of_string (program_text st ^ "\n" ^ text));
       st.sources <- st.sources @ [ (path, text) ];
       Format.printf "%% consulted %s@." path
     with e -> (
       match Wam.Program.error_message e with
       | Some msg -> Format.printf "%% %s: %s@." path msg
       | None -> raise e))
  | exception Sys_error msg -> Format.printf "%% cannot read: %s@." msg

let print_result result =
  match result with
  | Wam.Seq.Failure -> Format.printf "no@."
  | Wam.Seq.Success [] -> Format.printf "yes@."
  | Wam.Seq.Success bindings ->
    List.iter
      (fun (v, t) -> Format.printf "%s = %s@." v (Prolog.Pretty.to_string t))
      bindings

(* --time mode: run through an explicit program so a Wam.Profile sink
   can ride along, then print wall clock, inference count, and the
   per-predicate table. *)
let run_timed st ~src ~query ~t0 =
  let prog =
    Wam.Program.prepare ~parallel:(not st.sequential) ~src ~query ()
  in
  let prof =
    Wam.Profile.create prog.Wam.Program.symbols prog.Wam.Program.code
  in
  let sink = Wam.Profile.sink prof in
  let result, instrs, inferences =
    if st.sequential then begin
      let result, m = Wam.Seq.run ~sink prog in
      (result, Wam.Machine.total_instr m, m.Wam.Machine.inferences)
    end
    else begin
      let sim = Rapwam.Sim.create ~sink ~n_workers:st.pes prog in
      let result = Rapwam.Sim.run_prepared sim prog in
      ( result,
        Wam.Machine.total_instr sim.Rapwam.Sim.m,
        sim.Rapwam.Sim.m.Wam.Machine.inferences )
    end
  in
  print_result result;
  Format.printf "%% time: %.3fs, %d inferences, %d instructions (%s)@."
    (Unix.gettimeofday () -. t0)
    inferences instrs
    (if st.sequential then "WAM"
     else Printf.sprintf "RAP-WAM, %d PEs" st.pes);
  Format.printf "%a@." Wam.Profile.pp prof

let run_query st query =
  let t0 = Unix.gettimeofday () in
  try
    let src = program_text st in
    if st.time && not st.all_solutions then run_timed st ~src ~query ~t0
    else if st.all_solutions then begin
      (* enumeration is sequential by construction *)
      let solutions, m = Wam.Seq.solve_all ~max_solutions:64 ~src ~query () in
      (match solutions with
      | [] -> Format.printf "no@."
      | _ :: _ ->
        List.iteri
          (fun i bindings ->
            if bindings = [] then Format.printf "yes@."
            else begin
              if i > 0 then Format.printf ";@.";
              List.iter
                (fun (v, t) ->
                  Format.printf "%s = %s@." v (Prolog.Pretty.to_string t))
                bindings
            end)
          solutions;
        if List.length solutions >= 64 then
          Format.printf "%% ... (stopped after 64 solutions)@.");
      if st.stats then
        Format.printf "%% WAM all-solutions: %d instructions (%.3fs)@."
          (Wam.Machine.total_instr m)
          (Unix.gettimeofday () -. t0)
    end
    else if st.sequential then begin
      let result, m = Wam.Seq.solve ~src ~query () in
      (match result with
      | Wam.Seq.Failure -> Format.printf "no@."
      | Wam.Seq.Success [] -> Format.printf "yes@."
      | Wam.Seq.Success bindings ->
        List.iter
          (fun (v, t) ->
            Format.printf "%s = %s@." v (Prolog.Pretty.to_string t))
          bindings);
      if st.stats then
        Format.printf "%% WAM: %d instructions, %d inferences (%.3fs)@."
          (Wam.Machine.total_instr m)
          m.Wam.Machine.inferences
          (Unix.gettimeofday () -. t0)
    end
    else begin
      let result, sim = Rapwam.Sim.solve ~n_workers:st.pes ~src ~query () in
      (match result with
      | Wam.Seq.Failure -> Format.printf "no@."
      | Wam.Seq.Success [] -> Format.printf "yes@."
      | Wam.Seq.Success bindings ->
        List.iter
          (fun (v, t) ->
            Format.printf "%s = %s@." v (Prolog.Pretty.to_string t))
          bindings);
      if st.stats then begin
        let m = sim.Rapwam.Sim.m in
        Format.printf
          "%% RAP-WAM %d PEs: %d instr, %d rounds, %d parcalls, %d stolen \
           (%.3fs)@."
          st.pes (Wam.Machine.total_instr m) sim.Rapwam.Sim.rounds
          m.Wam.Machine.parcalls m.Wam.Machine.goals_stolen
          (Unix.gettimeofday () -. t0)
      end
    end
  with e -> (
    match Wam.Program.error_message e with
    | Some msg -> Format.printf "%% %s@." msg
    | None -> raise e)

let help () =
  print_string
    "commands:\n\
    \  [file.pl].        consult a file\n\
    \  ?- Goal.          run a query (plain `Goal.` works too)\n\
    \  :pes N            use N processing elements (current setting shown)\n\
    \  :sequential       toggle sequential-WAM mode\n\
    \  :stats            toggle per-query statistics\n\
    \  :time             toggle per-query wall clock + per-predicate profile\n\
    \  :all              toggle all-solutions enumeration (sequential)\n\
    \  :listing          disassemble the current program\n\
    \  :annotate         show the auto-annotated program\n\
    \  :help  :quit\n"

let strip s =
  let is_ws c = c = ' ' || c = '\t' || c = '\r' || c = '\n' in
  let n = String.length s in
  let b = ref 0 and e = ref n in
  while !b < n && is_ws s.[!b] do incr b done;
  while !e > !b && is_ws s.[!e - 1] do decr e done;
  String.sub s !b (!e - !b)

let handle st line =
  let line = strip line in
  if line = "" then ()
  else if line = ":quit" || line = ":q" || line = "halt." then raise Exit
  else if line = ":help" || line = ":h" then help ()
  else if line = ":sequential" then begin
    st.sequential <- not st.sequential;
    Format.printf "%% %s mode@."
      (if st.sequential then "sequential WAM" else "parallel RAP-WAM")
  end
  else if line = ":stats" then begin
    st.stats <- not st.stats;
    Format.printf "%% statistics %s@." (if st.stats then "on" else "off")
  end
  else if line = ":time" then begin
    st.time <- not st.time;
    Format.printf "%% timing %s@." (if st.time then "on" else "off")
  end
  else if line = ":all" then begin
    st.all_solutions <- not st.all_solutions;
    Format.printf "%% %s@."
      (if st.all_solutions then "all solutions (sequential)"
       else "first solution")
  end
  else if line = ":listing" then begin
    try
      let prog =
        Wam.Program.prepare ~src:(program_text st) ~query:"true" ()
      in
      Format.printf "%a@." Wam.Program.pp_listing prog
    with e -> Format.printf "%% %s@." (Printexc.to_string e)
  end
  else if line = ":annotate" then begin
    try
      let db = Prolog.Database.of_string (program_text st) in
      Format.printf "%a@." Prolog.Annotate.pp_database
        (Prolog.Annotate.database db)
    with e -> Format.printf "%% %s@." (Printexc.to_string e)
  end
  else if String.length line > 4 && String.sub line 0 5 = ":pes " then begin
    match int_of_string_opt (strip (String.sub line 5 (String.length line - 5))) with
    | Some n when n >= 1 && n <= 64 ->
      st.pes <- n;
      Format.printf "%% %d PEs@." n
    | Some _ | None -> Format.printf "%% :pes expects 1..64@."
  end
  else if String.length line > 2 && line.[0] = '[' then begin
    (* [file]. consult syntax *)
    let inner = strip line in
    let inner =
      if String.length inner > 0 && inner.[String.length inner - 1] = '.'
      then String.sub inner 0 (String.length inner - 1)
      else inner
    in
    if String.length inner > 2 && inner.[0] = '[' then
      consult st (strip (String.sub inner 1 (String.length inner - 2)))
    else Format.printf "%% bad consult syntax@."
  end
  else begin
    let query =
      let q =
        if String.length line > 2 && String.sub line 0 2 = "?-" then
          String.sub line 2 (String.length line - 2)
        else line
      in
      let q = strip q in
      if String.length q > 0 && q.[String.length q - 1] = '.' then
        String.sub q 0 (String.length q - 1)
      else q
    in
    run_query st query
  end

(* --pes: the bound and wording of Benchlib.Cli.pe_count. *)
let pes_arg s =
  match int_of_string_opt s with
  | Some n when n >= 1 && n <= Wam.Machine.max_workers -> n
  | _ ->
    Printf.eprintf "repl: --pes: expected a PE count in 1..%d, got %S\n"
      Wam.Machine.max_workers s;
    exit 2

let usage_line = "usage: repl [--pes N] [--time] [file.pl ...]"

let usage () =
  prerr_endline usage_line;
  exit 2

let () =
  let st =
    {
      sources = [ ("<prelude>", Prolog.Prelude.source) ];
      pes = 4;
      sequential = false;
      stats = true;
      all_solutions = false;
      time = false;
    }
  in
  (* flags, then files to consult at startup *)
  let rec parse_args = function
    | [] -> []
    | arg :: _ when arg = "--help" || String.starts_with ~prefix:"--help=" arg ->
      print_endline usage_line;
      exit 0
    | "--time" :: rest ->
      st.time <- true;
      parse_args rest
    | "--pes" :: v :: rest ->
      st.pes <- pes_arg v;
      parse_args rest
    | [ "--pes" ] ->
      prerr_endline "repl: --pes expects an argument";
      usage ()
    | arg :: rest when String.length arg > 6 && String.sub arg 0 6 = "--pes=" ->
      st.pes <- pes_arg (String.sub arg 6 (String.length arg - 6));
      parse_args rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' && arg <> "-" ->
      Printf.eprintf "repl: unknown option %S\n" arg;
      usage ()
    | file :: rest -> file :: parse_args rest
  in
  let files = parse_args (List.tl (Array.to_list Sys.argv)) in
  List.iter (consult st) files;
  Format.printf
    "RAP-WAM interactive toplevel -- :help for commands, :quit to leave@.";
  Format.printf "%% %d PEs, parallel mode, statistics on%s, prelude loaded@."
    st.pes
    (if st.time then ", timing on" else "");
  try
    while true do
      print_string "rapwam> ";
      flush stdout;
      match In_channel.input_line stdin with
      | None -> raise Exit
      | Some line -> handle st line
    done
  with Exit -> print_endline "bye"
