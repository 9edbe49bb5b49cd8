(* Machine-level tests: cell encoding, direct unification on heap
   cells, trail/untrail behaviour, failure injection (overflows), the
   RAP-WAM in-memory frame mechanics, and machine reuse. *)

let fresh_machine () =
  let prog = Wam.Program.prepare ~src:"" ~query:"true" () in
  let m =
    Wam.Machine.create ~n_workers:2 ~code:prog.Wam.Program.code
      ~symbols:prog.Wam.Program.symbols ()
  in
  (m, Wam.Machine.worker m 0, Wam.Machine.worker m 1)

(* ---------------- cells ---------------- *)

(* Each constructor keeps its payload, the seven tag the same payload
   apart, and only a variable is a ref. *)
let test_cell_roundtrip () =
  let constructors =
    Wam.Cell.
      [
        ("ref", ref_); ("str", str); ("lis", lis); ("con", con); ("num", num);
        ("fun", fun_); ("raw", raw);
      ]
  in
  List.iter
    (fun payload ->
      let cells =
        List.map
          (fun (name, mk) ->
            let c = mk payload in
            Alcotest.(check int) (name ^ " payload") payload (Wam.Cell.payload c);
            Alcotest.(check bool) (name ^ " is_ref") (name = "ref")
              (Wam.Cell.is_ref c);
            c)
          constructors
      in
      Alcotest.(check int) "seven distinct cells" 7
        (List.length (List.sort_uniq compare cells)))
    [ 12345; -42; max_int asr 4; 7; -1; 0 ]

let test_negative_payloads () =
  (* Raw(-1) is the sentinel for "none"; it must survive encoding *)
  Alcotest.(check int) "raw -1" (-1) (Wam.Cell.payload (Wam.Cell.raw (-1)));
  Alcotest.(check int) "num min" (-12345678)
    (Wam.Cell.payload (Wam.Cell.num (-12345678)))

(* ---------------- unify / trail ---------------- *)

let test_unify_direct () =
  let m, w, _ = fresh_machine () in
  let va = Wam.Exec.fresh_heap_var m w in
  let vb = Wam.Exec.fresh_heap_var m w in
  Alcotest.(check bool) "var-var" true
    (Wam.Exec.unify m w (Wam.Cell.ref_ va) (Wam.Cell.ref_ vb));
  Alcotest.(check bool) "then num" true
    (Wam.Exec.unify m w (Wam.Cell.ref_ va) (Wam.Cell.num 9));
  (* both now dereference to 9 *)
  Alcotest.(check bool) "b sees it" true
    (Wam.Exec.deref m w (Wam.Cell.ref_ vb) = Wam.Cell.num 9);
  Alcotest.(check bool) "conflict fails" false
    (Wam.Exec.unify m w (Wam.Cell.ref_ vb) (Wam.Cell.num 10))

let test_unify_structures_direct () =
  let m, w, _ = fresh_machine () in
  let env = Hashtbl.create 4 in
  let t1 = Prolog.Parser.term_of_string "f(X, g(X), 3)" in
  let t2 = Prolog.Parser.term_of_string "f(a, Y, 3)" in
  let c1 = Wam.Exec.encode m w env t1 in
  let env2 = Hashtbl.create 4 in
  let c2 = Wam.Exec.encode m w env2 t2 in
  Alcotest.(check bool) "unifies" true (Wam.Exec.unify m w c1 c2);
  (* Y must now be g(a) *)
  let y_addr = Hashtbl.find env2 "Y" in
  Alcotest.(check string) "Y bound" "g(a)"
    (Prolog.Pretty.to_string
       (Wam.Exec.decode m w (Wam.Memory.peek m.Wam.Machine.mem y_addr)))

let test_untrail_restores () =
  let m, w, _ = fresh_machine () in
  let va = Wam.Exec.fresh_heap_var m w in
  (* force trailing by raising HB above the var *)
  w.Wam.Machine.hb <- w.Wam.Machine.h;
  let tr0 = w.Wam.Machine.tr in
  Alcotest.(check bool) "bind" true
    (Wam.Exec.unify m w (Wam.Cell.ref_ va) (Wam.Cell.num 5));
  Alcotest.(check bool) "trailed" true (w.Wam.Machine.tr > tr0);
  Wam.Exec.untrail_to m w tr0;
  (* unbound again: cell references itself *)
  Alcotest.(check bool) "restored" true
    (Wam.Memory.peek m.Wam.Machine.mem va = Wam.Cell.ref_ va)

let test_trail_skips_young_heap () =
  let m, w, _ = fresh_machine () in
  (* hb at current h: vars created after need no trail *)
  w.Wam.Machine.hb <- w.Wam.Machine.h;
  let va = Wam.Exec.fresh_heap_var m w in
  let tr0 = w.Wam.Machine.tr in
  Alcotest.(check bool) "bind" true
    (Wam.Exec.unify m w (Wam.Cell.ref_ va) (Wam.Cell.num 1));
  Alcotest.(check int) "no trail entry" tr0 w.Wam.Machine.tr

let test_cross_pe_binding_always_trailed () =
  let m, w0, w1 = fresh_machine () in
  let va = Wam.Exec.fresh_heap_var m w0 in
  (* worker 1 binds worker 0's variable *)
  let tr0 = w1.Wam.Machine.tr in
  Alcotest.(check bool) "bind" true
    (Wam.Exec.unify m w1 (Wam.Cell.ref_ va) (Wam.Cell.num 3));
  Alcotest.(check bool) "trailed on w1" true (w1.Wam.Machine.tr > tr0)

(* ---------------- failure injection ---------------- *)

let expect_overflow name f =
  match f () with
  | exception Wam.Machine.Runtime_error msg ->
    Alcotest.(check bool)
      (name ^ " mentions overflow or limit")
      true
      (let lower = String.lowercase_ascii msg in
       let has sub =
         let nl = String.length sub and hl = String.length lower in
         let rec go i = i + nl <= hl && (String.sub lower i nl = sub || go (i + 1)) in
         go 0
       in
       has "overflow" || has "limit")
  | _ -> Alcotest.failf "%s: expected an overflow error" name

let test_heap_overflow_detected () =
  (* an infinite structure builder must hit the heap limit, not crash *)
  let src = "grow(L) :- grow([x|L])." in
  expect_overflow "heap/local" (fun () ->
      Wam.Seq.solve ~src ~query:"grow([])" ())

let test_step_limit () =
  let src = "loop :- loop." in
  expect_overflow "step limit" (fun () ->
      Wam.Seq.solve ~max_steps:10_000 ~src ~query:"loop" ())

let test_round_limit_parallel () =
  let src = "loop :- loop." in
  match
    Rapwam.Sim.solve ~max_rounds:10_000 ~n_workers:2 ~src ~query:"loop" ()
  with
  | exception Wam.Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected a round-limit error"

let test_undefined_parallel_goal () =
  match Rapwam.Sim.solve ~n_workers:2 ~src:"" ~query:"nope(1)" () with
  | exception Wam.Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected undefined-predicate error"

(* ---------------- RAP-WAM frame mechanics ---------------- *)

let test_goal_stack_push_pop () =
  let m, w0, _ = fresh_machine () in
  Rapwam.Goal_frame.push m w0 ~pf:111 ~slot:0 ~entry:42 ~arity:0;
  Rapwam.Goal_frame.push m w0 ~pf:222 ~slot:1 ~entry:43 ~arity:0;
  Alcotest.(check bool) "has work" true (Rapwam.Goal_frame.has_work w0);
  Alcotest.(check (option int)) "top pf" (Some 222)
    (Rapwam.Goal_frame.peek_top_pf m w0);
  (match Rapwam.Goal_frame.pop_own m w0 with
  | Some g ->
    Alcotest.(check int) "LIFO pf" 222 g.Rapwam.Goal_frame.pf;
    Alcotest.(check int) "entry" 43 g.Rapwam.Goal_frame.entry
  | None -> Alcotest.fail "pop failed");
  match Rapwam.Goal_frame.pop_own m w0 with
  | Some g -> Alcotest.(check int) "second" 111 g.Rapwam.Goal_frame.pf
  | None -> Alcotest.fail "second pop failed"

let test_goal_stack_steal_oldest () =
  let m, w0, w1 = fresh_machine () in
  Rapwam.Goal_frame.push m w0 ~pf:1 ~slot:0 ~entry:10 ~arity:0;
  Rapwam.Goal_frame.push m w0 ~pf:2 ~slot:1 ~entry:20 ~arity:0;
  (match Rapwam.Goal_frame.steal m w1 w0 with
  | Some g ->
    Alcotest.(check int) "steals oldest" 1 g.Rapwam.Goal_frame.pf;
    Alcotest.(check int) "pusher recorded" 0 g.Rapwam.Goal_frame.pusher
  | None -> Alcotest.fail "steal failed");
  (* owner still holds the newest *)
  match Rapwam.Goal_frame.pop_own m w0 with
  | Some g -> Alcotest.(check int) "newest left" 2 g.Rapwam.Goal_frame.pf
  | None -> Alcotest.fail "owner pop failed"

let test_goal_frame_args_roundtrip () =
  let m, w0, w1 = fresh_machine () in
  w0.Wam.Machine.x.(1) <- Wam.Cell.num 7;
  w0.Wam.Machine.x.(2) <- Wam.Cell.con 3;
  Rapwam.Goal_frame.push m w0 ~pf:9 ~slot:0 ~entry:5 ~arity:2;
  match Rapwam.Goal_frame.steal m w1 w0 with
  | Some g ->
    Alcotest.(check int) "arity" 2 g.Rapwam.Goal_frame.arity;
    Alcotest.(check bool) "args" true
      (g.Rapwam.Goal_frame.args.(0) = Wam.Cell.num 7
      && g.Rapwam.Goal_frame.args.(1) = Wam.Cell.con 3)
  | None -> Alcotest.fail "steal failed"

let test_parcall_frame_fields () =
  let m, w0, _ = fresh_machine () in
  let pf = Rapwam.Parcall.alloc m w0 2 ~join_addr:77 in
  Alcotest.(check int) "k" 2 (Rapwam.Parcall.k m w0 pf);
  Alcotest.(check int) "counter" 2 (Rapwam.Parcall.counter m w0 pf);
  Alcotest.(check int) "status ok" 0 (Rapwam.Parcall.status m w0 pf);
  Alcotest.(check int) "join" 77 (Rapwam.Parcall.join_addr m w0 pf);
  Alcotest.(check int) "parent" 0 (Rapwam.Parcall.parent m w0 pf);
  Alcotest.(check int) "current pf" pf w0.Wam.Machine.pf;
  (* check-ins *)
  let c1 = Rapwam.Parcall.check_in m w0 pf ~failed:false ~slot:0 in
  Alcotest.(check int) "counter decremented" 1 c1;
  let c2 = Rapwam.Parcall.check_in m w0 pf ~failed:true ~slot:1 in
  Alcotest.(check int) "counter zero" 0 c2;
  Alcotest.(check int) "status failed" 1 (Rapwam.Parcall.status m w0 pf)

let test_parcall_slot_encoding () =
  let m, w0, _ = fresh_machine () in
  let pf = Rapwam.Parcall.alloc m w0 1 ~join_addr:0 in
  Alcotest.(check bool) "pending" true
    (Rapwam.Parcall.decode_slot (Rapwam.Parcall.slot_exec m w0 pf 0)
    = (-1, false, false));
  Rapwam.Parcall.set_slot_exec m w0 pf 0 1;
  Alcotest.(check bool) "running on PE 1" true
    (Rapwam.Parcall.decode_slot (Rapwam.Parcall.slot_exec m w0 pf 0)
    = (1, true, false));
  Rapwam.Parcall.set_slot_done m w0 pf 0;
  Alcotest.(check bool) "done on PE 1" true
    (Rapwam.Parcall.decode_slot (Rapwam.Parcall.slot_exec m w0 pf 0)
    = (1, true, true))

let test_marker_roundtrip () =
  let m, w0, _ = fresh_machine () in
  w0.Wam.Machine.e <- 123;
  w0.Wam.Machine.cp <- 456;
  w0.Wam.Machine.pf <- 789;
  w0.Wam.Machine.barrier <- 17;
  let base = Rapwam.Marker.push m w0 ~pf:1 ~slot:0 ~resume_p:99 in
  (* clobber, then restore *)
  w0.Wam.Machine.e <- -1;
  w0.Wam.Machine.cp <- 0;
  w0.Wam.Machine.pf <- -1;
  w0.Wam.Machine.barrier <- -1;
  Alcotest.(check int) "resume" 99 (Rapwam.Marker.resume_p m w0 base);
  Rapwam.Marker.restore_continuation m w0 base;
  Alcotest.(check int) "e" 123 w0.Wam.Machine.e;
  Alcotest.(check int) "cp" 456 w0.Wam.Machine.cp;
  Alcotest.(check int) "pf" 789 w0.Wam.Machine.pf;
  Alcotest.(check int) "barrier" 17 w0.Wam.Machine.barrier

let test_messages_roundtrip () =
  let m, w0, w1 = fresh_machine () in
  let q = Rapwam.Messages.create_queues 2 in
  Alcotest.(check bool) "empty" false (Rapwam.Messages.pending q w1);
  Rapwam.Messages.send m q w0 ~target:1 { Rapwam.Messages.pf = 5; slot = 2 };
  Rapwam.Messages.send m q w0 ~target:1 { Rapwam.Messages.pf = 6; slot = 0 };
  Alcotest.(check bool) "pending" true (Rapwam.Messages.pending q w1);
  let m1 = Rapwam.Messages.receive m q w1 in
  Alcotest.(check bool) "fifo" true
    (m1.Rapwam.Messages.pf = 5 && m1.Rapwam.Messages.slot = 2);
  let m2 = Rapwam.Messages.receive m q w1 in
  Alcotest.(check bool) "second" true
    (m2.Rapwam.Messages.pf = 6 && m2.Rapwam.Messages.slot = 0);
  Alcotest.(check bool) "drained" false (Rapwam.Messages.pending q w1)

(* One program per storage area that exhausts that area before any
   other.  The local stack's recursion is no last call (done/0
   follows); the trail's variables predate a choice point on the
   local stack, so each binding is trailed while the stacks grow by
   a frame per twelve bindings; the PDL's two lists nest in their
   heads, so unifying them pushes one tail pair per level; the goal
   stack's recursion pushes h/0 at every level while the other PE
   loops inside the first h it stole. *)
let area_programs =
  [
    ("heap", "grow(L) :- grow([a|L]).\n", "grow([])", 1);
    ("local stack", "deep(N) :- M is N + 1, deep(M), done.\ndone.\n", "deep(0)", 1);
    ("control stack", "spin :- alt, spin.\nalt.\nalt.\n", "spin", 1);
    ( "trail",
      "tr :- mk(A, B, C, D, E, F, G, H, I, J, K, L), alt,\n\
      \  b(A), b(B), b(C), b(D), b(E), b(F), b(G), b(H), b(I), b(J), b(K), b(L), tr.\n\
       mk(_, _, _, _, _, _, _, _, _, _, _, _).\n\
       b(a).\n",
      "tr",
      1 );
    ( "PDL",
      "nest(0, []) :- !.\nnest(N, [T|x]) :- M is N - 1, nest(M, T).\n",
      "nest(40000, A), nest(40000, B), A = B",
      1 );
    ("goal stack", "g(N) :- M is N - 1, (g(M) & h).\nh :- h.\n", "g(0)", 2);
  ]

(* Each area ends in the runtime error that names it, within the
   deadline; a server over the same programs then turns the same
   error into one request's error, and the next query on its domain
   gets the direct-run answer: the raising machine went to no pool. *)
let test_area_overflows () =
  let good = "qsort([3,1,4,1,5,9,2,6], S)" in
  let src = String.concat "" (Benchlib.Programs.qsort :: List.map (fun (_, s, _, _) -> s) area_programs) in
  let servers =
    List.map
      (fun pes -> (pes, Server.Serve.create (Server.Serve.config ~pes ~workers:1 ~src ())))
      [ 1; 2 ]
  in
  let direct pes =
    let prog = Wam.Program.prepare ~parallel:(pes > 1) ~src ~query:good () in
    let result =
      if pes = 1 then fst (Wam.Seq.run prog) else fst (Rapwam.Sim.run ~n_workers:pes prog)
    in
    match result with
    | Wam.Seq.Success bindings ->
      List.map (fun (v, t) -> v ^ " = " ^ Prolog.Pretty.to_string t) bindings
    | Wam.Seq.Failure -> Alcotest.fail "the good query must succeed"
  in
  let serve server query =
    Server.Serve.compute server ~t0:0. (Server.Serve.admit { Server.Serve.rq_id = 0; rq_query = query })
  in
  let served server =
    let r = serve server good in
    Alcotest.(check (option string)) "good query served" None r.Server.Serve.rs_error;
    List.map Memo.Canon.answer_text r.Server.Serve.rs_answers
  in
  List.iter
    (fun (area, _, query, pes) ->
      let expected = area ^ " overflow (PE 0)" in
      let prog = Wam.Program.prepare ~parallel:(pes > 1) ~src ~query () in
      Deadline.within ~seconds:10.0 (fun () ->
          match
            if pes = 1 then fst (Wam.Seq.run prog) else fst (Rapwam.Sim.run ~n_workers:pes prog)
          with
          | exception Wam.Machine.Runtime_error msg -> Alcotest.(check string) area expected msg
          | _ -> Alcotest.failf "%s: the program ended without an error" area);
      let server = List.assoc pes servers in
      Deadline.within ~seconds:10.0 (fun () ->
          Alcotest.(check (option string)) (area ^ ", served") (Some expected)
            (serve server query).Server.Serve.rs_error);
      Alcotest.(check (list string))
        (Printf.sprintf "good query after the %s overflow" area)
        (direct pes) (served server))
    area_programs

(* A released machine comes back from [create] on the same storage,
   zeroed.  Release zeroes each page the run wrote only below the
   high-water mark of its area (the PDL's and message buffer's pages
   whole), and the registers and saved arguments only up to the
   code's register bound, so the runs are the ones that could write
   above a bound: the four benchmarks at quick and paper scale,
   programs whose parcalls fail and unwind (they lower h, lst and cst
   by backtracking and send unwind messages) and one that fills the
   PDL, on the WAM and at 1, 2, 4 and 8 PEs.  After each release
   every word of every page the run wrote that is kept for reuse
   reads 0, and so does every register and saved argument; each query
   runs first on a new machine and then on the storage another query
   just released, and the second run repeats the first's answer,
   counters and packed trace. *)
let test_released_machine_reset () =
  let programs =
    List.concat_map
      (fun quick ->
        List.map
          (fun name ->
            let b = Benchlib.Inputs.benchmark ~quick name in
            ((if quick then name ^ "/quick" else name), b.Benchlib.Programs.src, b.Benchlib.Programs.query))
          [ "deriv"; "qsort"; "tak"; "matrix" ])
      [ true; false ]
    @ [
        ("unwind, inline arm fails", Test_properties.unwind_stress_src ~inline_fails:true 3, "p(9, R)");
        ("unwind, pushed arm fails", Test_properties.unwind_stress_src ~inline_fails:false 2, "p(8, R)");
        ("failing parcalls", Test_properties.failure_stress_src 3, "p(10, R)");
        ( "compound terms unified",
          "t(X, Y) :- X = f(g(1, [a, b]), h(Z)), Y = f(g(1, [a, W]), h(2)), X = Y.\n",
          "t(X, Y)" );
      ]
  in
  let copy v : Wam.Machine.worker array = Marshal.from_string (Marshal.to_string v []) 0 in
  let mem (m : Wam.Machine.t) = m.Wam.Machine.mem in
  let message = Trace.Area.to_int Trace.Area.Message in
  let unwound = ref false in
  (* [pes = 0] is the WAM.  Also returns the page directory the run
     started on: a run that first writes a PE's region above the
     directory's reach grows it. *)
  let run pes prog =
    let buf = Trace.Sink.Buffer_sink.create () in
    let sink = Trace.Sink.buffer buf in
    let result, m, pages =
      if pes = 0 then
        let result, m = Wam.Seq.run ~sink prog in
        (result, m, (mem m).Wam.Memory.pages)
      else
        let sim = Rapwam.Sim.create ~sink ~n_workers:pes prog in
        let pages = (mem sim.Rapwam.Sim.m).Wam.Memory.pages in
        (Rapwam.Sim.run_prepared sim prog, sim.Rapwam.Sim.m, pages)
    in
    let b = Buffer.create (8 * Trace.Sink.Buffer_sink.length buf) in
    Trace.Sink.Buffer_sink.iter_packed
      (fun w ->
        if
          (not (Trace.Ref_record.is_sync_word w))
          && (w lsr Trace.Ref_record.tag_shift) land Trace.Ref_record.tag_mask = message
        then unwound := true;
        Buffer.add_int64_le b (Int64.of_int w))
      buf;
    let counters =
      ( (m.Wam.Machine.steps, m.Wam.Machine.inferences, m.Wam.Machine.parcalls),
        (m.Wam.Machine.goals_pushed, m.Wam.Machine.goals_stolen, m.Wam.Machine.cp_created),
        (m.Wam.Machine.cp_elided, m.Wam.Machine.trail_elided, m.Wam.Machine.deref_skipped),
        Array.to_list m.Wam.Machine.opcode_freq,
        Array.map
          (fun (w : Wam.Machine.worker) ->
            ( (w.instr_count, w.idle_cycles, w.wait_cycles),
              (w.max_h, w.max_lst, w.max_cst, w.max_tr, w.max_gs) ))
          m.Wam.Machine.workers )
    in
    (m, pages, (result, counters, Digest.string (Buffer.contents b)))
  in
  let create width (prog : Wam.Program.t) =
    Wam.Machine.create ~n_workers:width ~code:prog.Wam.Program.code
      ~symbols:prog.Wam.Program.symbols ()
  in
  (* The pool keeps at most 8 idle machines of any width and drops a
     machine given to it when full.  [drain] takes every idle machine
     of [width] workers out of it. *)
  let drain width prog =
    for _ = 1 to 8 do
      ignore (create width prog)
    done
  in
  (* Puts one new machine, unused, in the pool for the next run to
     take; returns that machine's workers. *)
  let fresh width prog =
    drain width prog;
    let m = create width prog in
    Alcotest.(check (list int)) "a new machine has no spare pages" [] (List.map Array.length (mem m).Wam.Memory.spare);
    let workers = copy m.Wam.Machine.workers in
    Wam.Machine.release m;
    workers
  in
  let release_reset what width prog (m : Wam.Machine.t) ~workers =
    let kept = min 64 (List.length (mem m).Wam.Memory.spare + List.length (mem m).Wam.Memory.written) in
    Alcotest.(check bool) (what ^ ": the run wrote pages") true ((mem m).Wam.Memory.written <> []);
    Wam.Machine.release m;
    Alcotest.(check int) (what ^ ": pages kept as spares") kept (List.length (mem m).Wam.Memory.spare);
    let zero kind a =
      Array.iteri (fun i v -> if v <> 0 then Alcotest.failf "%s: word %d of %s holds %d" what i kind v) a
    in
    List.iter (zero "a spare page") (mem m).Wam.Memory.spare;
    Array.iter
      (fun (w : Wam.Machine.worker) ->
        zero (Printf.sprintf "PE %d's registers" w.id) w.x;
        zero (Printf.sprintf "PE %d's saved arguments" w.id) w.shallow.sh_args)
      m.Wam.Machine.workers;
    let next = create width prog in
    Alcotest.(check bool) (what ^ ": storage reused") true ((mem next).Wam.Memory.pages == (mem m).Wam.Memory.pages);
    Alcotest.(check bool) (what ^ ": workers as new") true (copy next.Wam.Machine.workers = workers);
    Wam.Machine.release next
  in
  List.iter
    (fun pes ->
      let width = max 1 pes in
      let progs =
        List.map
          (fun (name, src, query) ->
            let what = Printf.sprintf "%s, %s" name (if pes = 0 then "WAM" else Printf.sprintf "%d PEs" pes) in
            (what, Wam.Program.prepare ~parallel:(pes > 0) ~src ~query ()))
          programs
      in
      (* the widths earlier tests and phases release: the pool keeps
         room for this phase's machine *)
      List.iter (fun w -> drain w (snd (List.hd progs))) [ 1; 2; 4; 8 ];
      let firsts =
        List.map
          (fun (what, prog) ->
            let workers = fresh width prog in
            let m, _, first = run pes prog in
            release_reset what width prog m ~workers;
            (first, workers))
          progs
      in
      (* each query again, on the storage the query before it released *)
      List.iter2
        (fun (what, prog) (first, workers) ->
          let idle = create width prog in
          let before = (mem idle).Wam.Memory.pages in
          Wam.Machine.release idle;
          let m, pages, again = run pes prog in
          Alcotest.(check bool) (what ^ ": run on released storage") true (pages == before);
          Alcotest.(check bool) (what ^ ": same answer, counters and trace") true (first = again);
          release_reset what width prog m ~workers)
        progs firsts)
    [ 0; 1; 2; 4; 8 ];
  Alcotest.(check bool) "some run sent unwind messages" true !unwound

(* A negative address is refused on every sink, before a word is
   emitted. *)
let test_negative_address_refused () =
  let buf = Trace.Sink.Buffer_sink.create () in
  List.iter
    (fun (name, sink) ->
      let mem = Wam.Memory.create ~sink () in
      List.iter
        (fun (what, access) ->
          match access mem with
          | exception Invalid_argument _ -> ()
          | () -> Alcotest.failf "%s on the %s sink took address -8" what name)
        [
          ( "read",
            fun mem ->
              ignore (Wam.Memory.read mem ~pe:0 ~area:Trace.Area.Heap (-8)) );
          ( "write",
            fun mem -> Wam.Memory.write mem ~pe:0 ~area:Trace.Area.Heap (-8) 0 );
          ( "sync",
            fun mem ->
              Wam.Memory.sync mem ~pe:0 ~kind:Trace.Ref_record.Acquire (-8) );
        ])
    [ ("null", Trace.Sink.null); ("buffer", Trace.Sink.buffer buf) ];
  Alcotest.(check int) "nothing emitted" 0 (Trace.Sink.Buffer_sink.length buf)

let suite =
  [
    Alcotest.test_case "cell roundtrip" `Quick test_cell_roundtrip;
    Alcotest.test_case "negative payloads" `Quick test_negative_payloads;
    Alcotest.test_case "unify direct" `Quick test_unify_direct;
    Alcotest.test_case "unify structures" `Quick test_unify_structures_direct;
    Alcotest.test_case "untrail restores" `Quick test_untrail_restores;
    Alcotest.test_case "trail skips young heap" `Quick
      test_trail_skips_young_heap;
    Alcotest.test_case "cross-PE trailing" `Quick
      test_cross_pe_binding_always_trailed;
    Alcotest.test_case "heap overflow" `Slow test_heap_overflow_detected;
    Alcotest.test_case "step limit" `Quick test_step_limit;
    Alcotest.test_case "round limit" `Quick test_round_limit_parallel;
    Alcotest.test_case "undefined parallel goal" `Quick
      test_undefined_parallel_goal;
    Alcotest.test_case "goal stack push/pop" `Quick test_goal_stack_push_pop;
    Alcotest.test_case "goal stack steal" `Quick test_goal_stack_steal_oldest;
    Alcotest.test_case "goal frame args" `Quick test_goal_frame_args_roundtrip;
    Alcotest.test_case "parcall fields" `Quick test_parcall_frame_fields;
    Alcotest.test_case "parcall slots" `Quick test_parcall_slot_encoding;
    Alcotest.test_case "marker roundtrip" `Quick test_marker_roundtrip;
    Alcotest.test_case "messages" `Quick test_messages_roundtrip;
    Alcotest.test_case "each storage area overflows with its own error" `Slow
      test_area_overflows;
    Alcotest.test_case "a released machine is handed out reset" `Quick
      test_released_machine_reset;
    Alcotest.test_case "a negative address is refused on every sink" `Quick
      test_negative_address_refused;
  ]
