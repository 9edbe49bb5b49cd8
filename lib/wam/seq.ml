(* Sequential WAM driver: runs a compiled program on one worker to its
   first solution.  This is the paper's "WAM" baseline. *)

type result =
  | Success of (string * Prolog.Term.t) list
  | Failure

let default_max_steps = 500_000_000

(* Seed A1..Ak with fresh heap variables for the query variables and
   return their addresses for answer decoding. *)
let seed_query m (w : Machine.worker) prog =
  let k = Program.arity prog in
  let addrs =
    List.init k (fun i ->
        let a = Exec.fresh_heap_var m w in
        w.Machine.x.(i + 1) <- Cell.ref_ a;
        a)
  in
  w.Machine.nargs <- k;
  w.Machine.cp <- Compile.halt_addr;
  w.Machine.p <- Program.entry prog;
  w.Machine.b0 <- -1;
  w.Machine.status <- Machine.Running;
  addrs

let decode_answer m w prog addrs =
  List.map2
    (fun v a -> (v, Exec.decode m w (Memory.peek m.Machine.mem a)))
    prog.Program.query_vars addrs

(* [run prog] executes the query to its first solution.  Returns the
   result plus the machine (for statistics inspection). *)
let run ?(sink = Trace.Sink.null) ?(max_steps = default_max_steps) prog =
  let m =
    Machine.create ~sink ~n_workers:1 ~code:prog.Program.code
      ~symbols:prog.Program.symbols ()
  in
  let w = Machine.worker m 0 in
  let addrs = seed_query m w prog in
  let result =
    try
      while not m.Machine.halted do
        if m.Machine.steps >= max_steps then
          Machine.runtime_error "step limit exceeded (%d)" max_steps;
        Exec.step m w
      done;
      Success (decode_answer m w prog addrs)
    with Exec.No_more_choices _ ->
      m.Machine.failed <- true;
      Failure
  in
  (result, m)

(* Enumerate every solution by failure-driving the machine: after each
   success, force a fail and resume until the alternatives are
   exhausted.  Sequential only -- the parallel machine commits its
   CGEs at the join, so it implements first-solution semantics. *)
let run_all ?(max_solutions = max_int) prog =
  let m =
    Machine.create ~n_workers:1 ~code:prog.Program.code
      ~symbols:prog.Program.symbols ()
  in
  let w = Machine.worker m 0 in
  let addrs = seed_query m w prog in
  let solutions = ref [] in
  (try
     while not m.Machine.halted && List.length !solutions < max_solutions do
       while not m.Machine.halted do
         if m.Machine.steps >= default_max_steps then
           Machine.runtime_error "step limit exceeded (%d)" default_max_steps;
         Exec.step m w
       done;
       solutions := decode_answer m w prog addrs :: !solutions;
       if List.length !solutions < max_solutions then begin
         (* resume backtracking for the next solution *)
         m.Machine.halted <- false;
         w.Machine.status <- Machine.Running;
         Exec.fail m w
       end
     done
   with Exec.No_more_choices _ -> ());
  (List.rev !solutions, m)

(* Convenience wrapper: parse, compile sequentially, run. *)
let solve ?max_steps ~src ~query () =
  let prog = Program.prepare ~parallel:false ~src ~query () in
  run ?max_steps prog

let solve_all ?max_solutions ~src ~query () =
  let prog = Program.prepare ~parallel:false ~src ~query () in
  run_all ?max_solutions prog
