(* The paper's motivating scenario: symbolic differentiation with
   Goal-Independence AND-parallelism.  Sweeps the PE count and prints
   work (as % of WAM), speedup and utilization -- a miniature of
   Figure 2.

     dune exec examples/deriv_speedup.exe                              *)

let () =
  let bench = Benchlib.Inputs.benchmark "deriv" in
  Format.printf "benchmark: deriv (query of %d characters)@.@."
    (String.length bench.Benchlib.Programs.query);
  let wam = Benchlib.Runner.run_wam ~keep_trace:false bench in
  Format.printf
    "sequential WAM: %d instructions, %d data references@.@."
    wam.Benchlib.Runner.instructions wam.Benchlib.Runner.data_refs;
  Format.printf "%4s %12s %10s %9s %8s %8s@." "PEs" "work refs" "work(%WAM)"
    "speedup" "stolen" "util";
  List.iter
    (fun n ->
      let r = Benchlib.Runner.run_rapwam ~keep_trace:false ~n_pes:n bench in
      let run =
        {
          Stats.Work.n_pes = n;
          work_refs = r.Benchlib.Runner.data_refs;
          rounds = r.Benchlib.Runner.rounds;
          idle_cycles = r.Benchlib.Runner.idle_cycles;
          wait_cycles = r.Benchlib.Runner.wait_cycles;
        }
      in
      Format.printf "%4d %12d %9.1f%% %9.2f %8d %7.1f%%@." n
        r.Benchlib.Runner.data_refs
        (Stats.Work.work_percent ~wam_refs:wam.Benchlib.Runner.data_refs run)
        (Stats.Work.speedup ~seq_rounds:wam.Benchlib.Runner.instructions run)
        r.Benchlib.Runner.goals_stolen
        (100.0 *. Stats.Work.utilization run))
    [ 1; 2; 4; 8; 16; 32 ];
  Format.printf
    "@.The paper's claim: overhead stays low as PEs grow, so AND-parallel@.\
     execution beats a sequential WAM of the same technology even at@.\
     modest parallelism.@."
