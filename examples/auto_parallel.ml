(* Automatic parallelization: take a PLAIN Prolog program (no '&'
   anywhere), run the mode-driven independence analysis, inspect the
   CGEs it inserts, and compare sequential vs parallel execution.

     dune exec examples/auto_parallel.exe                              *)

let program =
  {|
    :- mode fib(+, -).
    fib(0, 1).
    fib(1, 1).
    fib(N, F) :-
        N > 1, N1 is N - 1, N2 is N - 2,
        fib(N1, F1), fib(N2, F2),
        F is F1 + F2.

    % preorder numbering of a binary tree: the two subtree walks are
    % only conditionally independent (the tree may share variables)
    :- mode walk(?, -).
    walk(leaf, 0).
    walk(t(L, _, R), N) :-
        walk(L, NL), walk(R, NR),
        N is NL + NR + 1.
  |}

let query = "fib(16, F)"

let () =
  Format.printf "plain program (no annotations):@.%s@." program;

  let db = Prolog.Database.of_string program in
  let annotated = Prolog.Annotate.database db in
  Format.printf "automatically annotated:@.@.%a@."
    Prolog.Annotate.pp_database annotated;
  Format.printf "parallel calls introduced: %d@.@."
    (Prolog.Database.parallel_call_count annotated);

  (* sequential baseline: the plain program *)
  let seq_prog = Wam.Program.prepare ~parallel:false ~src:program ~query () in
  let seq_result, seq_m = Wam.Seq.run seq_prog in
  (match seq_result with
  | Wam.Seq.Success b ->
    Format.printf "WAM (plain)        : F = %s  (%d instructions)@."
      (Prolog.Pretty.to_string (List.assoc "F" b))
      (Wam.Machine.total_instr seq_m)
  | Wam.Seq.Failure -> Format.printf "WAM: no@.");

  (* parallel: the annotated program on 8 PEs *)
  let par_prog =
    Wam.Program.of_database ~parallel:true
      (Prolog.Annotate.database (Prolog.Database.of_string program))
      ~query ()
  in
  let sim = Rapwam.Sim.create ~n_workers:8 par_prog in
  let par_result = Rapwam.Sim.run_prepared sim par_prog in
  (match par_result with
  | Wam.Seq.Success b ->
    Format.printf
      "RAP-WAM (auto, 8PE): F = %s  (%d rounds, %d stolen, speedup %.2fx)@."
      (Prolog.Pretty.to_string (List.assoc "F" b))
      sim.Rapwam.Sim.rounds sim.Rapwam.Sim.m.Wam.Machine.goals_stolen
      (float_of_int (Wam.Machine.total_instr seq_m)
      /. float_of_int sim.Rapwam.Sim.rounds)
  | Wam.Seq.Failure -> Format.printf "RAP-WAM: no@.");

  (* the conditional case: walk/2 over a tree with shared variables *)
  Format.printf
    "@.walk/2's subtree goals got a conditional CGE: with a ground tree@.\
     the checks succeed and the walks run in parallel; with a tree that@.\
     shares variables between subtrees they fall back to sequential@.\
     execution -- same answers either way:@.";
  List.iter
    (fun (label, q) ->
      let prog =
        Wam.Program.of_database ~parallel:true
          (Prolog.Annotate.database (Prolog.Database.of_string program))
          ~query:q ()
      in
      let sim = Rapwam.Sim.create ~n_workers:4 prog in
      let result = Rapwam.Sim.run_prepared sim prog in
      match result with
      | Wam.Seq.Success b ->
        Format.printf "  %-12s N = %s  (parcalls %d)@." label
          (Prolog.Pretty.to_string (List.assoc "N" b))
          sim.Rapwam.Sim.m.Wam.Machine.parcalls
      | Wam.Seq.Failure -> Format.printf "  %-12s no@." label)
    [
      ("ground tree:", "walk(t(t(leaf, a, leaf), b, t(leaf, c, leaf)), N)");
      ("shared vars:", "T = t(t(leaf, X, leaf), X, t(leaf, X, leaf)), walk(T, N)");
    ]
