(* Tests for the global groundness/sharing analysis: fixpoint
   convergence, pattern inference, mode seeding, the annotator rewiring
   (checks discharged, parallelism preserved), a qcheck soundness
   oracle, and end-to-end answer equality with the analysis on/off. *)

let analyze ?(queries = []) src =
  let db = Prolog.Database.of_string src in
  let entries = List.map Analysis.Analyze.entry_of_string queries in
  (db, Analysis.Analyze.database ~entries db)

let gfa = Alcotest.testable
    (fun fmt g -> Format.pp_print_string fmt (Prolog.Abspat.gfa_to_string g))
    ( = )

let find_entry summary name arity =
  match Analysis.Summary.find summary ~name ~arity with
  | Some e -> e
  | None -> Alcotest.failf "%s/%d not reached by the analysis" name arity

(* ---- groundness propagation through a conjunction ---- *)

let test_groundness_propagation () =
  let _, summary =
    analyze ~queries:[ "p(Z)" ] "p(X) :- q(X), r(X).\nq(a).\nr(b).\n"
  in
  let q = find_entry summary "q" 1 in
  Alcotest.check gfa "q called free" Prolog.Abspat.Free
    q.Prolog.Abspat.call.Prolog.Abspat.args.(0);
  Alcotest.check gfa "q succeeds ground" Prolog.Abspat.Ground
    q.Prolog.Abspat.success.Prolog.Abspat.args.(0);
  (* r runs after q bound X: its call pattern sees the binding *)
  let r = find_entry summary "r" 1 in
  Alcotest.check gfa "r called ground" Prolog.Abspat.Ground
    r.Prolog.Abspat.call.Prolog.Abspat.args.(0)

(* ---- fixpoint convergence on mutual recursion ---- *)

let test_mutual_recursion_converges () =
  let _, summary =
    analyze
      ~queries:[ "even(s(s(0)))" ]
      "even(0).\neven(s(X)) :- odd(X).\nodd(s(X)) :- even(X).\n"
  in
  let even = find_entry summary "even" 1 in
  let odd = find_entry summary "odd" 1 in
  Alcotest.check gfa "even called ground" Prolog.Abspat.Ground
    even.Prolog.Abspat.call.Prolog.Abspat.args.(0);
  Alcotest.check gfa "odd called ground" Prolog.Abspat.Ground
    odd.Prolog.Abspat.call.Prolog.Abspat.args.(0);
  let st = Analysis.Summary.stats summary in
  Alcotest.(check int) "no widening needed" 0 st.Analysis.Summary.widened;
  Alcotest.(check bool)
    "even and odd share an SCC" true
    (List.exists
       (fun comp ->
         List.mem ("even", 1) comp && List.mem ("odd", 1) comp)
       (Analysis.Summary.sccs summary))

(* ---- mode directives seed entries without a query ---- *)

let test_mode_seeding () =
  let _, summary =
    analyze ":- mode d(?, +, -).\nd(X, X, 1).\nd(C, X, 0) :- atomic(C), C \\== X.\n"
  in
  let d = find_entry summary "d" 3 in
  let args = d.Prolog.Abspat.call.Prolog.Abspat.args in
  Alcotest.check gfa "? arg is any" Prolog.Abspat.Any args.(0);
  Alcotest.check gfa "+ arg is ground" Prolog.Abspat.Ground args.(1);
  Alcotest.check gfa "- arg is free" Prolog.Abspat.Free args.(2)

(* ---- the annotator discharges checks under inferred patterns ---- *)

let test_annotator_discharges_checks () =
  let src = "p(X, Y) :- q(X), q(Y).\nq(a).\nq(b).\n" in
  let db = Prolog.Database.of_string src in
  let _, off = Prolog.Annotate.database_stats db in
  let summary =
    Analysis.Analyze.database
      ~entries:[ Analysis.Analyze.entry_of_string "p(a, b)" ]
      db
  in
  let patterns = Analysis.Summary.patterns summary in
  let db_on, on = Prolog.Annotate.database_stats ~patterns db in
  Alcotest.(check int) "no checks with analysis" 0
    on.Prolog.Annotate.checks_emitted;
  Alcotest.(check bool) "parallel call emitted" true
    (Prolog.Database.parallel_call_count db_on >= 1);
  Alcotest.(check bool) "strictly fewer checks than local" true
    (on.Prolog.Annotate.checks_emitted < off.Prolog.Annotate.checks_emitted
     || off.Prolog.Annotate.checks_emitted = 0)

(* ---- check reduction on the paper benchmarks ---- *)

let bench_by_name name =
  List.find
    (fun b -> b.Benchlib.Programs.name = name)
    (Benchlib.Inputs.small_benchmarks () @ Benchlib.Large.population ())

let reduction name =
  let b = bench_by_name name in
  let db =
    Prolog.Database.sequentialize
      (Prolog.Database.of_string b.Benchlib.Programs.src)
  in
  let db_off, off = Prolog.Annotate.database_stats db in
  let summary =
    Analysis.Analyze.database
      ~entries:
        [ Analysis.Analyze.entry_of_string b.Benchlib.Programs.query ]
      db
  in
  let db_on, on =
    Prolog.Annotate.database_stats
      ~patterns:(Analysis.Summary.patterns summary)
      db
  in
  ( off.Prolog.Annotate.checks_emitted,
    on.Prolog.Annotate.checks_emitted,
    Prolog.Database.parallel_call_count db_off,
    Prolog.Database.parallel_call_count db_on )

let test_check_reduction () =
  (* On these paper benchmarks the analysis strictly reduces run-time
     checks without losing any parallel calls. *)
  List.iter
    (fun name ->
      let checks_off, checks_on, par_off, par_on = reduction name in
      if checks_on >= checks_off then
        Alcotest.failf "%s: checks %d -> %d (no strict reduction)" name
          checks_off checks_on;
      if par_on < par_off then
        Alcotest.failf "%s: parallel calls %d -> %d (lost parallelism)" name
          par_off par_on)
    [ "deriv"; "matrix"; "queens"; "serialise" ]

(* ---- qcheck soundness oracle: analysis-ground implies runtime-ground ---- *)

let app_src = "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n"

let int_list l =
  "[" ^ String.concat ", " (List.map string_of_int l) ^ "]"

let prop_groundness_sound (l1, l2) =
  let query = Printf.sprintf "app(%s, %s, R)" (int_list l1) (int_list l2) in
  let db = Prolog.Database.of_string app_src in
  let summary =
    Analysis.Analyze.database
      ~entries:[ Analysis.Analyze.entry_of_string query ]
      db
  in
  match Analysis.Summary.find summary ~name:"app" ~arity:3 with
  | None -> false (* the entry must reach app/3 *)
  | Some e -> (
    match Wam.Seq.solve ~src:app_src ~query () with
    | Wam.Seq.Failure, _ -> false
    | Wam.Seq.Success bindings, _ ->
      let r = List.assoc "R" bindings in
      (* soundness: a Ground verdict must hold of the runtime term *)
      (match e.Prolog.Abspat.success.Prolog.Abspat.args.(2) with
      | Prolog.Abspat.Ground -> Prolog.Term.vars r = []
      | Prolog.Abspat.Free | Prolog.Abspat.Any -> true))

let qcheck_groundness =
  QCheck.Test.make ~count:60 ~name:"groundness verdicts are sound"
    QCheck.(pair (small_list small_nat) (small_list small_nat))
    prop_groundness_sound

let test_app_success_precise () =
  (* with both inputs ground the analysis should prove the output
     ground, making the oracle above non-vacuous *)
  let db = Prolog.Database.of_string app_src in
  let summary =
    Analysis.Analyze.database
      ~entries:[ Analysis.Analyze.entry_of_string "app([1, 2], [3], R)" ]
      db
  in
  let e = find_entry summary "app" 3 in
  Alcotest.check gfa "output proven ground" Prolog.Abspat.Ground
    e.Prolog.Abspat.success.Prolog.Abspat.args.(2)

(* ---- end-to-end: answers are identical with the analysis on/off ---- *)

let bindings_str = function
  | Wam.Seq.Failure -> [ ("$result", "failure") ]
  | Wam.Seq.Success bs ->
    List.map (fun (v, t) -> (v, Prolog.Pretty.to_string t)) bs

let run_annotated ~patterns src query =
  let db = Prolog.Database.sequentialize (Prolog.Database.of_string src) in
  let db = Prolog.Annotate.database ?patterns db in
  let prog = Wam.Program.of_database ~parallel:true db ~query () in
  let result, _ = Rapwam.Sim.run ~n_workers:4 prog in
  bindings_str result

let test_e2e_answers_unchanged () =
  let cases =
    [
      ( "d(U + V, X, DU + DV) :- d(U, X, DU), d(V, X, DV).\n\
         d(U * V, X, DU * V + U * DV) :- d(U, X, DU), d(V, X, DV).\n\
         d(X, X, 1).\n\
         d(C, X, 0) :- atomic(C), C \\== X.\n",
        "d(x * x + x, x, D)" );
      ( "qs([], []).\n\
         qs([H|T], S) :- part(H, T, Lo, Hi), qs(Lo, A), qs(Hi, B),\n\
        \  app(A, [H|B], S).\n\
         part(_, [], [], []).\n\
         part(P, [X|Xs], [X|Lo], Hi) :- X =< P, part(P, Xs, Lo, Hi).\n\
         part(P, [X|Xs], Lo, [X|Hi]) :- X > P, part(P, Xs, Lo, Hi).\n\
         app([], L, L).\n\
         app([H|T], L, [H|R]) :- app(T, L, R).\n",
        "qs([3, 1, 4, 1, 5, 9, 2, 6], S)" );
    ]
  in
  List.iter
    (fun (src, query) ->
      let seq = bindings_str (fst (Wam.Seq.solve ~src ~query ())) in
      let off = run_annotated ~patterns:None src query in
      let db = Prolog.Database.of_string src in
      let summary =
        Analysis.Analyze.database
          ~entries:[ Analysis.Analyze.entry_of_string query ]
          db
      in
      let on =
        run_annotated
          ~patterns:(Some (Analysis.Summary.patterns summary))
          src query
      in
      Alcotest.(check (list (pair string string)))
        (query ^ ": analysis off = sequential") seq off;
      Alcotest.(check (list (pair string string)))
        (query ^ ": analysis on = sequential") seq on)
    cases

(* ---- the shared iterate-until-stable loop ---- *)

(* A step over keys 1..3 that reports a change on its first [k]
   passes (counted on key 1), and logs every key it is called on. *)
let settling k =
  let passes = ref 0 and visits = ref [] in
  let step key =
    visits := key :: !visits;
    if key = 1 then incr passes;
    !passes <= k
  in
  (step, visits)

let test_fixpoint_settles () =
  List.iter
    (fun k ->
      let step, visits = settling k in
      Alcotest.(check (pair int bool))
        (Printf.sprintf "settles after %d changing passes" k)
        (k + 1, true)
        (Analysis.Depgraph.fixpoint ~max_rounds:10 [ 1; 2; 3 ] step);
      Alcotest.(check (list int))
        (Printf.sprintf "every key, in order, on each of %d passes" (k + 1))
        (List.concat (List.init (k + 1) (fun _ -> [ 1; 2; 3 ])))
        (List.rev !visits))
    [ 0; 1; 4 ]

let test_fixpoint_cap () =
  (* detan widens what still moves once the cap is spent *)
  Alcotest.(check (pair int bool))
    "always changing: stopped by the cap" (7, false)
    (Deadline.within ~seconds:5.0 (fun () ->
         Analysis.Depgraph.fixpoint ~max_rounds:7 [ "a"; "b" ] (fun _ -> true)))

let test_fixpoint_uncapped () =
  let step, _ = settling 60 in
  Alcotest.(check (pair int bool))
    "no cap: runs until stable" (61, true)
    (Analysis.Depgraph.fixpoint [ 1; 2; 3 ] step)

let suite =
  [
    Alcotest.test_case "groundness propagation" `Quick
      test_groundness_propagation;
    Alcotest.test_case "mutual recursion converges" `Quick
      test_mutual_recursion_converges;
    Alcotest.test_case "mode seeding" `Quick test_mode_seeding;
    Alcotest.test_case "annotator discharges checks" `Quick
      test_annotator_discharges_checks;
    Alcotest.test_case "check reduction on benchmarks" `Quick
      test_check_reduction;
    Alcotest.test_case "app success precision" `Quick
      test_app_success_precise;
    QCheck_alcotest.to_alcotest qcheck_groundness;
    Alcotest.test_case "e2e answers unchanged" `Quick
      test_e2e_answers_unchanged;
    Alcotest.test_case "fixpoint settles after k changing passes" `Quick
      test_fixpoint_settles;
    Alcotest.test_case "fixpoint stops at max_rounds" `Quick
      test_fixpoint_cap;
    Alcotest.test_case "fixpoint without a cap runs until stable" `Quick
      test_fixpoint_uncapped;
  ]
