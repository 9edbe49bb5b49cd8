(* Work and speedup accounting (paper, Figure 2).

   "Work" is the number of memory references generated by all PEs
   while doing actual processing; the simulator's trace contains
   exactly those references, so work = trace length.  Overhead is the
   difference between RAP-WAM work and sequential WAM work on the same
   benchmark; both are usually reported as percentages of WAM work.
   Execution time in the interleaved simulation is the number of
   scheduler rounds, giving a speedup estimate. *)

type run = {
  n_pes : int;
  work_refs : int; (* references while processing *)
  rounds : int; (* simulated time *)
  idle_cycles : int;
  wait_cycles : int;
}

let work_percent ~wam_refs run =
  100.0 *. float_of_int run.work_refs /. float_of_int wam_refs

let speedup ~seq_rounds run =
  float_of_int seq_rounds /. float_of_int run.rounds

(* Utilization: fraction of PE-cycles spent processing. *)
let utilization run =
  let total = run.n_pes * run.rounds in
  if total = 0 then 0.0
  else
    float_of_int (total - run.idle_cycles - run.wait_cycles)
    /. float_of_int total
