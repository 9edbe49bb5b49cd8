(* wamlint: static verification of compiled WAM/RAP-WAM code.

     wamlint program.pl ...        -- compile and verify each file
     wamlint --benchmarks          -- verify every built-in benchmark
     wamlint --seq program.pl      -- verify the sequential compilation
     wamlint --list program.pl     -- also print the disassembly

   Sources are compiled exactly as the drivers compile them (with a
   trivial query entry when none is given) and the resulting code area
   is checked: register def-before-use, environment-slot bounds,
   try/retry/trust chains, switch and check targets, parcall/join
   structure, reachability.  Exit status 1 when any diagnostic fires. *)

let lint_one ~label ~parallel ~listing ~src ~query =
  match Wam.Program.prepare ~parallel ~src ~query () with
  | exception Wam.Compile.Error msg ->
    Format.printf "%s: compile error: %s@." label msg;
    1
  | prog ->
    if listing then Format.printf "%a@." Wam.Program.pp_listing prog;
    let diags = Wam.Wamlint.check_program prog in
    List.iter
      (fun d -> Format.printf "%s: %a@." label Wam.Wamlint.pp_diag d)
      diags;
    Format.printf "%s: %d diagnostic(s)%s@." label (List.length diags)
      (if parallel then "" else " (sequential compilation)");
    List.length diags

let lint_file ~parallel ~listing path =
  let src = In_channel.(with_open_bin path input_all) in
  lint_one
    ~label:(Filename.basename path)
    ~parallel ~listing ~src ~query:"true"

let lint_benchmarks ~parallel ~listing () =
  let benches =
    Benchlib.Inputs.small_benchmarks () @ Benchlib.Large.population ()
  in
  List.fold_left
    (fun acc b ->
      acc
      + lint_one ~label:b.Benchlib.Programs.name ~parallel ~listing
          ~src:b.Benchlib.Programs.src ~query:b.Benchlib.Programs.query)
    0 benches

let run_cmd files benchmarks seq listing =
  let parallel = not seq in
  let total =
    List.fold_left
      (fun acc f -> acc + lint_file ~parallel ~listing f)
      (if benchmarks then lint_benchmarks ~parallel ~listing () else 0)
      files
  in
  if files = [] && not benchmarks then begin
    prerr_endline "wamlint: nothing to lint (give files or --benchmarks)";
    exit 2
  end;
  if total > 0 then exit 1

open Cmdliner

let files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Prolog sources.")

let benchmarks_arg =
  Arg.(
    value & flag
    & info [ "benchmarks" ]
        ~doc:"Verify every built-in benchmark (small and Table-3 sets).")

let seq_arg =
  Arg.(
    value & flag
    & info [ "seq" ]
        ~doc:"Verify the sequential (WAM-baseline) compilation instead of \
              the parallel one.")

let list_arg =
  Arg.(
    value & flag
    & info [ "list" ] ~doc:"Print the disassembly before the diagnostics.")

let cmd =
  let doc = "statically verify compiled WAM/RAP-WAM bytecode" in
  Cmd.v
    (Cmd.info "wamlint" ~doc)
    Term.(const run_cmd $ files_arg $ benchmarks_arg $ seq_arg $ list_arg)

let () = Benchlib.Cli.eval cmd
