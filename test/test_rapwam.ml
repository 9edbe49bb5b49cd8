(* Tests of the RAP-WAM parallel simulator: correctness of parallel
   execution (answers match the sequential WAM), scheduling, stealing,
   parcall failure and unwinding, across worker counts. *)

let deriv_src =
  "d(U + V, X, DU + DV) :- d(U, X, DU) & d(V, X, DV).\n\
   d(U - V, X, DU - DV) :- d(U, X, DU) & d(V, X, DV).\n\
   d(U * V, X, DU * V + U * DV) :- d(U, X, DU) & d(V, X, DV).\n\
   d(X, X, 1).\n\
   d(C, X, 0) :- atomic(C), C \\== X.\n"

let psolve ~n query ?(src = "") () =
  let result, sim = Rapwam.Sim.solve ~n_workers:n ~src ~query () in
  (result, sim)

let answer_str ~n ~src query var =
  let result, _sim = psolve ~n ~src query () in
  match result with
  | Wam.Seq.Failure -> Alcotest.failf "parallel query %S failed" query
  | Wam.Seq.Success bindings -> (
    match List.assoc_opt var bindings with
    | Some t -> Prolog.Pretty.to_string t
    | None -> Alcotest.failf "no binding for %s" var)

let test_unconditional_parcall_1pe () =
  Alcotest.(check string)
    "deriv on 1 PE" "1 + 0"
    (answer_str ~n:1 ~src:deriv_src "d(x + 3, x, D)" "D")

let test_unconditional_parcall_4pe () =
  Alcotest.(check string)
    "deriv on 4 PEs" "1 + 0"
    (answer_str ~n:4 ~src:deriv_src "d(x + 3, x, D)" "D")

let test_deep_parcall_matches_seq () =
  let query = "d((x + 1) * (x * x - 3) + x * x * x, x, D)" in
  let seq_result, _ = Wam.Seq.solve ~src:deriv_src ~query () in
  let seq_answer =
    match seq_result with
    | Wam.Seq.Success b -> Prolog.Pretty.to_string (List.assoc "D" b)
    | Wam.Seq.Failure -> Alcotest.fail "sequential failed"
  in
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "deriv on %d PEs" n)
        seq_answer
        (answer_str ~n ~src:deriv_src query "D"))
    [ 1; 2; 3; 4; 8 ]

(* [[]] is atom 0, so its cell and the integer 0's share a payload:
   every match must compare whole cells.  p and q fail on the get
   path, r on the unify path, s through a put into a get; k answers
   through switch_on_term and a constant switch.  Each engine gives
   each answer: the WAM and RAP-WAM at 1 and 4 PEs. *)
let constants_src =
  "p(0). q([]). r(f(0)). s :- t(0). t([]).\n\
   k(0, int). k([], nil). k(a, atom).\n"

let test_constant_kinds () =
  let engines =
    ("WAM", fun query -> fst (Wam.Seq.solve ~src:constants_src ~query ()))
    :: List.map
         (fun n -> (Printf.sprintf "%d PEs" n, fun query -> fst (psolve ~n ~src:constants_src query ())))
         [ 1; 4 ]
  in
  let check query want =
    List.iter
      (fun (engine, run) ->
        let got =
          match run query with
          | Wam.Seq.Failure -> "no"
          | Wam.Seq.Success bindings -> (
            match List.assoc_opt "X" bindings with
            | Some t -> Prolog.Pretty.to_string t
            | None -> "yes")
        in
        Alcotest.(check string) (Printf.sprintf "%s on the %s" query engine) want got)
      engines
  in
  List.iter (fun q -> check q "yes") [ "p(0)"; "q([])"; "r(f(0))"; "t([])" ];
  List.iter (fun q -> check q "no") [ "p([])"; "q(0)"; "r(f([]))"; "s" ];
  check "k([], X)" "nil";
  check "k(0, X)" "int";
  check "k(a, X)" "atom"

let fib_src =
  "fib(0, 1).\n\
   fib(1, 1).\n\
   fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2,\n\
   \  fib(N1, F1) & fib(N2, F2), F is F1 + F2.\n"

let test_fib_parallel () =
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "fib(15) on %d PEs" n)
        "987"
        (answer_str ~n ~src:fib_src "fib(15, F)" "F"))
    [ 1; 2; 4; 8 ]

let test_goals_get_stolen () =
  let _result, sim = psolve ~n:4 ~src:fib_src "fib(12, F)" () in
  Alcotest.(check bool)
    "some goals ran on another PE" true
    (sim.Rapwam.Sim.m.Wam.Machine.goals_stolen > 0)

let test_no_steal_policy_still_correct () =
  let result, sim =
    Rapwam.Sim.solve ~n_workers:4 ~allow_steal:false ~src:fib_src
      ~query:"fib(10, F)" ()
  in
  (match result with
  | Wam.Seq.Success b ->
    Alcotest.(check string) "fib" "89" (Prolog.Pretty.to_string (List.assoc "F" b))
  | Wam.Seq.Failure -> Alcotest.fail "failed");
  Alcotest.(check int) "nothing stolen" 0
    sim.Rapwam.Sim.m.Wam.Machine.goals_stolen

let test_steal_newest_policy () =
  Alcotest.(check string)
    "fib steal-newest" "987"
    (let result, _ =
       Rapwam.Sim.solve ~n_workers:4 ~steal:Rapwam.Sim.Steal_newest
         ~src:fib_src ~query:"fib(15, F)" ()
     in
     match result with
     | Wam.Seq.Success b -> Prolog.Pretty.to_string (List.assoc "F" b)
     | Wam.Seq.Failure -> "FAILED")

let test_conditional_cge_runs_parallel () =
  (* ground(X) holds, so the parallel branch runs *)
  let src =
    "p(X, R1, R2) :- (ground(X) | q(X, R1) & q(X, R2)).\nq(X, f(X))."
  in
  Alcotest.(check string) "cge" "f(a)" (answer_str ~n:2 ~src "p(a, R1, R2)" "R1")

let test_conditional_cge_falls_back () =
  (* X unbound: the check fails, the sequential version must run *)
  let src = "p(X, R) :- (ground(X) | q(R) & r(R)).\nq(1). r(1)." in
  let result, sim = psolve ~n:2 ~src "p(Y, R)" () in
  (match result with
  | Wam.Seq.Success b ->
    Alcotest.(check string) "R" "1" (Prolog.Pretty.to_string (List.assoc "R" b))
  | Wam.Seq.Failure -> Alcotest.fail "fallback failed");
  Alcotest.(check int) "no parcall allocated" 0
    sim.Rapwam.Sim.m.Wam.Machine.parcalls

let test_indep_check () =
  let src = "p(X, Y) :- (indep(X, Y) | q(X) & q(Y)).\nq(_)." in
  (* independent: parallel branch *)
  let _, sim = psolve ~n:2 ~src "p(A, B)" () in
  Alcotest.(check int) "parallel branch" 1
    sim.Rapwam.Sim.m.Wam.Machine.parcalls;
  (* dependent (shared variable C): sequential fallback *)
  let result, sim2 = psolve ~n:2 ~src "A = f(C), B = g(C), p(A, B)" () in
  (match result with
  | Wam.Seq.Failure -> Alcotest.fail "dependent fallback failed"
  | Wam.Seq.Success _ -> ());
  Alcotest.(check int) "fallback branch" 0
    sim2.Rapwam.Sim.m.Wam.Machine.parcalls

(* one arm fails: the whole parcall must fail, bindings unwound *)
let failure_src = "p(X, Y) :- q(X) & r(Y).\nq(1).\nr(Y) :- Y = 2, fail.\n"

let test_parcall_failure_propagates () =
  let src = failure_src in
  List.iter
    (fun n ->
      let result, _ = psolve ~n ~src "p(X, Y)" () in
      match result with
      | Wam.Seq.Failure -> ()
      | Wam.Seq.Success _ ->
        Alcotest.failf "parcall failure not propagated on %d PEs" n)
    [ 1; 2; 4 ]

(* after the parcall fails, an alternative clause must succeed with
   clean bindings *)
let alternative_src = "p(X) :- q(X) & r(X2).\np(found).\nq(1).\nr(_) :- fail.\n"

let test_parcall_failure_then_alternative () =
  let src = alternative_src in
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "alternative on %d PEs" n)
        "found"
        (answer_str ~n ~src "p(X)" "X"))
    [ 1; 2; 4 ]

(* sibling binds A before the other arm fails; retry must see A unbound *)
let unwind_src =
  "top(A, R) :- p(A), R = retried.\n\
   p(A) :- bindit(A) & failing(_Z).\n\
   p(A) :- var(A), A = clean.\n\
   bindit(bound).\n\
   failing(_) :- slow(20), fail.\n\
   slow(0).\n\
   slow(N) :- N > 0, N1 is N - 1, slow(N1).\n"

let test_unwind_clears_remote_bindings () =
  let src = unwind_src in
  List.iter
    (fun n ->
      let result, _ = psolve ~n ~src "top(A, R)" () in
      match result with
      | Wam.Seq.Failure -> Alcotest.failf "unwind test failed on %d PEs" n
      | Wam.Seq.Success b ->
        Alcotest.(check string)
          (Printf.sprintf "A clean on %d PEs" n)
          "clean"
          (Prolog.Pretty.to_string (List.assoc "A" b)))
    [ 1; 2; 4 ]

(* One arm fails while its sibling runs a chain of nested parcalls:
   the parent waits for the sibling to finish, unwinds it, and the
   query fails as it does on the WAM. *)
let nested_failure_src =
  "p(A) :- slowfail & long(40, A).\n\
   slowfail :- spin(30), fail.\n\
   long(0, done).\n\
   long(N, R) :- N > 0, (a(N, X) & a(N, Y)), X = Y, N1 is N - 1, long(N1, R).\n\
   a(N, M) :- spin(20), M is N * 2.\n\
   spin(0).\n\
   spin(K) :- K > 0, K1 is K - 1, spin(K1).\n"

let test_failing_parcall_beside_nested () =
  let src = nested_failure_src in
  (match Wam.Seq.solve ~src ~query:"p(A)" () with
  | Wam.Seq.Failure, _ -> ()
  | Wam.Seq.Success _, _ -> Alcotest.fail "p(A) succeeded on the WAM");
  List.iter
    (fun n ->
      match
        Rapwam.Sim.solve ~n_workers:n ~max_rounds:100_000 ~src ~query:"p(A)" ()
      with
      | Wam.Seq.Failure, _ -> ()
      | Wam.Seq.Success _, _ -> Alcotest.failf "p(A) succeeded on %d PEs" n)
    [ 2; 4 ]

(* A pushed goal its parent runs itself starts under its own backtrack
   barrier.  When r fails it must check in as failed: backtracking on
   into the inline goal's alternative q(c) would return to the join
   with r's slot never checked in (a deadlock at 1 PE or with stealing
   off).  Two and three arms and a nested CGE, each failing and
   succeeding, on the WAM and at 1/2/4/8 PEs under each steal policy
   and with stealing off. *)
let local_goal_src =
  "p(X, Z) :- (q(X) & r(Z)).\n\
   p3(X, Y, Z) :- (q(X) & q(Y) & r(Z)).\n\
   pn(X, Z) :- (q(X) & s(Z)).\n\
   s(Z) :- (q(_) & r(Z)).\n\
   q(a). q(c).\n\
   r(d).\n"

let answer_text = function
  | Wam.Seq.Failure -> "no"
  | Wam.Seq.Success bindings ->
    String.concat ", "
      (List.map
         (fun (v, t) -> v ^ " = " ^ Prolog.Pretty.to_string t)
         bindings)

let test_local_goal_failure () =
  let src = local_goal_src in
  let policies =
    [ ("oldest", Rapwam.Sim.Steal_oldest, true);
      ("newest", Rapwam.Sim.Steal_newest, true);
      ("off", Rapwam.Sim.Steal_oldest, false) ]
  in
  List.iter
    (fun (query, want) ->
      let seq, _ = Wam.Seq.solve ~src ~query () in
      Alcotest.(check string) (query ^ " on the WAM") want (answer_text seq);
      List.iter
        (fun n ->
          List.iter
            (fun (label, steal, allow_steal) ->
              let got =
                match
                  Rapwam.Sim.solve ~n_workers:n ~steal ~allow_steal
                    ~max_rounds:100_000 ~src ~query ()
                with
                | result, _ -> answer_text result
                | exception Wam.Machine.Runtime_error msg -> msg
              in
              Alcotest.(check string)
                (Printf.sprintf "%s at %d PEs, steal %s" query n label)
                want got)
            policies)
        [ 1; 2; 4; 8 ])
    [ ("p(A, e)", "no"); ("p(A, d)", "A = a"); ("p3(A, B, e)", "no");
      ("p3(A, B, d)", "A = a, B = a"); ("pn(A, e)", "no");
      ("pn(A, d)", "A = a") ]

(* The four programs above are the only fixed ones whose runs send
   unwind messages (each trace holds 16 Message-area references).
   Their packed traces and scheduler counters (rounds, idle cycles,
   wait cycles, goals stolen) at 2/4/8 PEs are pinned: the wake-ups on
   a message and on an ack decide when the PEs involved act.  In the
   nested program's unwind the thief skips the trail entries of its
   own environments ([Sim.unwind_section]), so it writes fewer words
   than it reads. *)
let unwind_pins =
  [
    (("parcall failure", 2), ("ba8e09025360629f6815b13d48564e7a", (20, 14, 3, 1)));
    (("parcall failure", 4), ("ba8e09025360629f6815b13d48564e7a", (20, 54, 3, 1)));
    (("parcall failure", 8), ("ba8e09025360629f6815b13d48564e7a", (20, 134, 3, 1)));
    (("failure then alternative", 2), ("defb0dd862dc5f46d24075d321411467", (21, 18, 1, 1)));
    (("failure then alternative", 4), ("defb0dd862dc5f46d24075d321411467", (21, 58, 1, 1)));
    (("failure then alternative", 8), ("defb0dd862dc5f46d24075d321411467", (21, 138, 1, 1)));
    (("unwind remote bindings", 2), ("f7bbb35e64bd380d4e80ab10309e783d", (328, 32, 292, 1)));
    (("unwind remote bindings", 4), ("f7bbb35e64bd380d4e80ab10309e783d", (328, 686, 292, 1)));
    (("unwind remote bindings", 8), ("f7bbb35e64bd380d4e80ab10309e783d", (328, 1994, 292, 1)));
    ( ("failing parcall beside nested parcalls", 2),
      ("92363a1b4ca76d00ad53e5c2d52ad102", (25099, 11, 1, 1)) );
    ( ("failing parcall beside nested parcalls", 4),
      ("f6c4316805a985cf541314f4f5eaa201", (13099, 14249, 1, 41)) );
    ( ("failing parcall beside nested parcalls", 8),
      ("f6c4316805a985cf541314f4f5eaa201", (13099, 66645, 1, 41)) );
  ]

let test_unwind_pins () =
  let programs =
    [
      ("parcall failure", failure_src, "p(X, Y)");
      ("failure then alternative", alternative_src, "p(X)");
      ("unwind remote bindings", unwind_src, "top(A, R)");
      ("failing parcall beside nested parcalls", nested_failure_src, "p(A)");
    ]
  in
  List.iter
    (fun (name, src, query) ->
      List.iter
        (fun n ->
          let prog = Wam.Program.prepare ~parallel:true ~src ~query () in
          let buf = Trace.Sink.Buffer_sink.create () in
          let _, sim =
            Rapwam.Sim.run ~sink:(Trace.Sink.buffer buf) ~n_workers:n prog
          in
          let m = sim.Rapwam.Sim.m in
          let sum f = Array.fold_left (fun acc w -> acc + f w) 0 m.Wam.Machine.workers in
          let messages = ref 0 in
          Trace.Sink.Buffer_sink.iter
            (fun r -> if r.Trace.Ref_record.area = Trace.Area.Message then incr messages)
            buf;
          let label = Printf.sprintf "%s on %d PEs" name n in
          Alcotest.(check int) (label ^ ": message references") 16 !messages;
          Alcotest.(check (pair string (pair (pair int int) (pair int int))))
            label
            (let d, (r, i, w, s) = List.assoc (name, n) unwind_pins in
             (d, ((r, i), (w, s))))
            ( Test_trace_pin.digest buf,
              ( (sim.Rapwam.Sim.rounds, sum (fun w -> w.Wam.Machine.idle_cycles)),
                (sum (fun w -> w.Wam.Machine.wait_cycles), m.Wam.Machine.goals_stolen) ) ))
        [ 2; 4; 8 ])
    programs

let test_three_way_parcall () =
  let src =
    "t(A, B, C) :- q(1, A) & q(2, B) & q(3, C).\nq(N, M) :- M is N * 10.\n"
  in
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "3-way on %d PEs" n)
        "20"
        (answer_str ~n ~src "t(A, B, C)" "B"))
    [ 1; 2; 3; 8 ]

let test_nested_parcalls_mixed_with_seq () =
  let src =
    "work(N, R) :- N =< 1, !, R = 1.\n\
     work(N, R) :- N1 is N - 1, N2 is N - 2,\n\
     \  work(N1, R1) & work(N2, R2),\n\
     \  Rm is R1 + R2, combine(Rm, R).\n\
     combine(X, R) :- R is X + 1.\n"
  in
  let seq, _ = Wam.Seq.solve ~src ~query:"work(12, R)" () in
  let expect =
    match seq with
    | Wam.Seq.Success b -> Prolog.Pretty.to_string (List.assoc "R" b)
    | Wam.Seq.Failure -> Alcotest.fail "seq work failed"
  in
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "work on %d PEs" n)
        expect
        (answer_str ~n ~src "work(12, R)" "R"))
    [ 2; 4; 6 ]

let test_work_one_pe_close_to_wam () =
  (* RAP-WAM on 1 PE should do work close to the sequential WAM
     (paper, Figure 2: the two curves meet at 1 PE) *)
  let query = "d((x + 1) * (x - 2) + (x * x) * (3 - x), x, D)" in
  let count_refs prog n =
    let stats =
      Trace.Areastats.create ~pe_of_addr:Wam.Layout.pe_of_addr ()
    in
    let sink = Trace.Areastats.sink stats in
    (if n = 0 then begin
       let _ = Wam.Seq.run ~sink prog in
       ()
     end
     else begin
       let _ = Rapwam.Sim.run ~sink ~n_workers:n prog in
       ()
     end);
    Trace.Areastats.total stats
  in
  let seq_prog = Wam.Program.prepare ~parallel:false ~src:deriv_src ~query () in
  let par_prog = Wam.Program.prepare ~parallel:true ~src:deriv_src ~query () in
  let wam_refs = count_refs seq_prog 0 in
  let rap_refs = count_refs par_prog 1 in
  let ratio = float_of_int rap_refs /. float_of_int wam_refs in
  if ratio < 1.0 || ratio > 1.6 then
    Alcotest.failf "RAP-WAM/WAM work ratio on 1 PE out of range: %.3f (%d/%d)"
      ratio rap_refs wam_refs

let test_halt_stops_all_workers () =
  let src = "p :- q & r.\nq.\nr.\n" in
  let result, _ = psolve ~n:4 ~src "p" () in
  match result with
  | Wam.Seq.Success _ -> ()
  | Wam.Seq.Failure -> Alcotest.fail "p failed"

let test_memmodel_basics () =
  let cfg =
    Cachesim.Protocol.make ~kind:Cachesim.Protocol.Copyback ~cache_words:64
      ~write_allocate:true ()
  in
  let mm = Rapwam.Memmodel.create ~bus_words_per_cycle:1.0 ~mem_latency:2 ~n_pes:2 cfg in
  Rapwam.Memmodel.set_now mm 0;
  let r ~pe ~addr op =
    Trace.Ref_record.pack
      { Trace.Ref_record.pe; addr; area = Trace.Area.Heap; op }
  in
  (* read miss: 4-word fill -> PE 0 stalled for 4 + 2 cycles *)
  Rapwam.Memmodel.reference mm (r ~pe:0 ~addr:0 Trace.Ref_record.Read);
  Alcotest.(check bool) "pe0 stalled" true (Rapwam.Memmodel.stalled mm 0);
  Alcotest.(check bool) "pe1 free" false (Rapwam.Memmodel.stalled mm 1);
  Rapwam.Memmodel.set_now mm 6;
  Alcotest.(check bool) "pe0 settles" false (Rapwam.Memmodel.stalled mm 0);
  (* hit: no new stall *)
  Rapwam.Memmodel.reference mm (r ~pe:0 ~addr:1 Trace.Ref_record.Read);
  Alcotest.(check bool) "hit free" false (Rapwam.Memmodel.stalled mm 0);
  (* write miss is buffered: bus busy but the PE keeps going *)
  Rapwam.Memmodel.reference mm (r ~pe:1 ~addr:64 Trace.Ref_record.Write);
  Alcotest.(check bool) "write buffered" false (Rapwam.Memmodel.stalled mm 1);
  Alcotest.(check bool) "stalls recorded" true
    (Rapwam.Memmodel.total_stalls mm > 0.0)

let test_memmodel_bus_serializes () =
  let cfg =
    Cachesim.Protocol.make ~kind:Cachesim.Protocol.Copyback ~cache_words:64
      ~write_allocate:true ()
  in
  let mm = Rapwam.Memmodel.create ~bus_words_per_cycle:1.0 ~mem_latency:0 ~n_pes:2 cfg in
  Rapwam.Memmodel.set_now mm 0;
  let r ~pe ~addr =
    Trace.Ref_record.pack
      {
        Trace.Ref_record.pe;
        addr;
        area = Trace.Area.Heap;
        op = Trace.Ref_record.Read;
      }
  in
  Rapwam.Memmodel.reference mm (r ~pe:0 ~addr:0);
  Rapwam.Memmodel.reference mm (r ~pe:1 ~addr:256);
  (* PE 1's fill queued behind PE 0's: stalled past cycle 4 *)
  Rapwam.Memmodel.set_now mm 5;
  Alcotest.(check bool) "pe0 done" false (Rapwam.Memmodel.stalled mm 0);
  Alcotest.(check bool) "pe1 queued" true (Rapwam.Memmodel.stalled mm 1);
  Rapwam.Memmodel.set_now mm 8;
  Alcotest.(check bool) "pe1 done" false (Rapwam.Memmodel.stalled mm 1)

let test_integrated_sim_slower_but_correct () =
  let src = fib_src in
  let query = "fib(12, F)" in
  let prog = Wam.Program.prepare ~parallel:true ~src ~query () in
  let _, ideal = Rapwam.Sim.run ~n_workers:4 prog in
  let cfg =
    Cachesim.Protocol.make ~kind:Cachesim.Protocol.Write_in_broadcast
      ~cache_words:256 ()
  in
  let mm = Rapwam.Memmodel.create ~n_pes:4 cfg in
  let prog2 = Wam.Program.prepare ~parallel:true ~src ~query () in
  let result, slow = Rapwam.Sim.run ~memory:mm ~n_workers:4 prog2 in
  (match result with
  | Wam.Seq.Success b ->
    Alcotest.(check string) "answer" "233"
      (Prolog.Pretty.to_string (List.assoc "F" b))
  | Wam.Seq.Failure -> Alcotest.fail "integrated run failed");
  Alcotest.(check bool) "contention costs time" true
    (slow.Rapwam.Sim.rounds > ideal.Rapwam.Sim.rounds)

(* Sleeping PEs' idle and wait cycles are settled on every way out of
   a run: a halt, a failed query, the round limit (a [Runtime_error]
   between rounds) and a runtime error in a thief's turn (PE 2's, at
   4 PEs and more, while PE 1 sleeps), after which only the PEs before
   it had a slot in their last round.  (rounds, idle
   cycles, wait cycles) at 1..128 PEs. *)
let exit_pins =
  [
    (("halt", 1), (10219, 0, 0));
    (("failure", 1), (10215, 0, 0));
    (("round limit", 1), (300, 0, 0));
    (("error in a turn", 1), (872, 0, 0));
    (("halt", 4), (2983, 331, 1392));
    (("failure", 4), (2979, 322, 1392));
    (("round limit", 4), (300, 135, 0));
    (("error in a turn", 4), (303, 580, 0));
    (("halt", 8), (1671, 1155, 2010));
    (("failure", 8), (1667, 1134, 2010));
    (("round limit", 8), (300, 451, 0));
    (("error in a turn", 8), (303, 1792, 0));
    (("halt", 64), (407, 15660, 309));
    (("failure", 64), (403, 15471, 309));
    (("round limit", 64), (300, 9427, 257));
    (("error in a turn", 64), (303, 18760, 0));
    (("halt", 128), (407, 41982, 0));
    (("failure", 128), (403, 41601, 0));
    (("round limit", 128), (300, 28764, 0));
    (("error in a turn", 128), (303, 38152, 0));
  ]

let test_exit_counters () =
  let error_src =
    "p(X) :- q & b & r(X).\nq :- spin(40).\nb :- spin(2).\n\
     r(X) :- spin(20), _ is X + 1.\nspin(0).\nspin(K) :- K > 0, K1 is K - 1, spin(K1).\n"
  in
  let runs =
    [
      ("halt", fib_src, "fib(12, F)", None);
      ("failure", fib_src, "fib(12, 0)", None);
      ("round limit", fib_src, "fib(12, F)", Some 300);
      ("error in a turn", error_src, "p(X)", None);
    ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (exit, src, query, max_rounds) ->
          let prog = Wam.Program.prepare ~parallel:true ~src ~query () in
          let sim = Rapwam.Sim.create ~n_workers:n prog in
          (match Rapwam.Sim.run_prepared ?max_rounds sim prog with
          | Wam.Seq.Success _ | Wam.Seq.Failure -> ()
          | exception Wam.Machine.Runtime_error _ -> ());
          let m = sim.Rapwam.Sim.m in
          let sum f = Array.fold_left (fun acc w -> acc + f w) 0 m.Wam.Machine.workers in
          Alcotest.(check (pair int (pair int int)))
            (Printf.sprintf "%s on %d PEs" exit n)
            (let r, i, w = List.assoc (exit, n) exit_pins in
             (r, (i, w)))
            ( sim.Rapwam.Sim.rounds,
              ( sum (fun w -> w.Wam.Machine.idle_cycles),
                sum (fun w -> w.Wam.Machine.wait_cycles) ) ))
        runs)
    [ 1; 4; 8; 64; 128 ]

(* The machine's count of published goals against the goal stacks
   themselves: the frames between each worker's [gs_bot] and [gs_top],
   walked through their size words with untraced peeks. *)
let frames_on_stacks (m : Wam.Machine.t) =
  Array.fold_left
    (fun acc (w : Wam.Machine.worker) ->
      let rec walk base n =
        if base >= w.Wam.Machine.gs_top then n
        else
          walk
            (base + Wam.Cell.payload (Wam.Memory.peek m.Wam.Machine.mem base))
            (n + 1)
      in
      walk w.Wam.Machine.gs_bot acc)
    0 m.Wam.Machine.workers

(* Run [prog], comparing the count with the stacks at every sync word
   (a push publishes, and a pop or steal moves a stack pointer, inside
   a lock's Acquire/Release pair) and after the run. *)
let check_published_count ~label ~steal ~n_workers prog =
  let machine = ref None in
  let sink =
    {
      Trace.Sink.emit_word =
        (fun word ->
          match !machine with
          | Some m when Trace.Ref_record.is_sync_word word ->
            let count = m.Wam.Machine.published_goals in
            if count < 0 then Alcotest.failf "%s: count %d" label count;
            let frames = frames_on_stacks m in
            if count <> frames then
              Alcotest.failf "%s: count %d but %d frames on the stacks" label
                count frames
          | Some _ | None -> ());
    }
  in
  let sim = Rapwam.Sim.create ~sink ~steal ~n_workers prog in
  machine := Some sim.Rapwam.Sim.m;
  ignore (Rapwam.Sim.run_prepared sim prog);
  Alcotest.(check int) (label ^ ": after the run")
    (frames_on_stacks sim.Rapwam.Sim.m)
    sim.Rapwam.Sim.m.Wam.Machine.published_goals

(* The nine benchmarks (the four at quick inputs and the Table-3
   population) and trees of failing parcalls, from both generators of
   [Test_properties] (the second's parcalls fail and unwind), at 1/4/8
   PEs under both steal policies. *)
let test_published_goal_count () =
  let policies =
    [ (Rapwam.Sim.Steal_oldest, "oldest"); (Rapwam.Sim.Steal_newest, "newest") ]
  in
  let programs =
    List.map
      (fun (b : Benchlib.Programs.benchmark) ->
        (b.Benchlib.Programs.name, Benchlib.Runner.prepare ~parallel:true b))
      (Benchlib.Inputs.small_benchmarks () @ Benchlib.Large.population ())
    @ List.concat_map
        (fun n ->
          List.map
            (fun k ->
              ( Printf.sprintf "failing parcalls p(%d, R), k = %d" n k,
                Wam.Program.prepare ~parallel:true
                  ~src:(Test_properties.failure_stress_src k)
                  ~query:(Printf.sprintf "p(%d, R)" n) () ))
            [ 2; 3; 4; 5 ])
        [ 5; 8; 11 ]
    @ List.concat_map
        (fun (n, k) ->
          List.map
            (fun inline_fails ->
              ( Printf.sprintf "unwinding parcalls p(%d, R), k = %d, inline arm %s" n k
                  (if inline_fails then "fails" else "succeeds"),
                Wam.Program.prepare ~parallel:true
                  ~src:(Test_properties.unwind_stress_src ~inline_fails k)
                  ~query:(Printf.sprintf "p(%d, R)" n) () ))
            [ true; false ])
        [ (6, 2); (6, 3); (9, 3); (9, 5) ]
  in
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun n_workers ->
          List.iter
            (fun (steal, policy) ->
              check_published_count
                ~label:(Printf.sprintf "%s %dpe %s" name n_workers policy)
                ~steal ~n_workers prog)
            policies)
        [ 1; 4; 8 ])
    programs

let suite =
  [
    Alcotest.test_case "parcall 1 PE" `Quick test_unconditional_parcall_1pe;
    Alcotest.test_case "parcall 4 PEs" `Quick test_unconditional_parcall_4pe;
    Alcotest.test_case "deep parcall = seq" `Quick test_deep_parcall_matches_seq;
    Alcotest.test_case "a constant matches only its own kind" `Quick test_constant_kinds;
    Alcotest.test_case "parallel fib" `Quick test_fib_parallel;
    Alcotest.test_case "goals stolen" `Quick test_goals_get_stolen;
    Alcotest.test_case "no-steal policy" `Quick test_no_steal_policy_still_correct;
    Alcotest.test_case "steal-newest policy" `Quick test_steal_newest_policy;
    Alcotest.test_case "CGE parallel branch" `Quick test_conditional_cge_runs_parallel;
    Alcotest.test_case "CGE fallback" `Quick test_conditional_cge_falls_back;
    Alcotest.test_case "indep check" `Quick test_indep_check;
    Alcotest.test_case "parcall failure" `Quick test_parcall_failure_propagates;
    Alcotest.test_case "failure then alternative" `Quick
      test_parcall_failure_then_alternative;
    Alcotest.test_case "unwind remote bindings" `Quick
      test_unwind_clears_remote_bindings;
    Alcotest.test_case "failing parcall beside nested parcalls" `Quick
      test_failing_parcall_beside_nested;
    Alcotest.test_case "a failing local goal checks in as failed" `Quick
      test_local_goal_failure;
    Alcotest.test_case "3-way parcall" `Quick test_three_way_parcall;
    Alcotest.test_case "nested parcalls" `Quick test_nested_parcalls_mixed_with_seq;
    Alcotest.test_case "1-PE work ~ WAM" `Quick test_work_one_pe_close_to_wam;
    Alcotest.test_case "halt stops workers" `Quick test_halt_stops_all_workers;
    Alcotest.test_case "memmodel basics" `Quick test_memmodel_basics;
    Alcotest.test_case "memmodel bus serializes" `Quick
      test_memmodel_bus_serializes;
    Alcotest.test_case "integrated sim" `Quick
      test_integrated_sim_slower_but_correct;
    Alcotest.test_case "the published-goal count is exact" `Quick
      test_published_goal_count;
    Alcotest.test_case "the unwind runs match their pins" `Quick test_unwind_pins;
    Alcotest.test_case "cycles are settled on every exit" `Quick test_exit_counters;
  ]
