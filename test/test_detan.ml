(* Tests for the static determinacy analysis: the success-count
   lattice, the clause mutual-exclusion test, per-benchmark
   certification decisions, the dynamic replay oracle at 1/4/8 PEs,
   choice-point elision accounting (machine counters and per-predicate
   profile), first-argument indexing edge cases under det compilation,
   and parcall failure recovery across the trail-condition floors.
   Defect detection is checked for every analysis at once in
   test_certify. *)

open QCheck
module D = Certification.Make (Detan.Instance)

let bench_names = [ "deriv"; "tak"; "qsort"; "matrix" ]

let small name =
  List.find
    (fun (b : Benchlib.Programs.benchmark) -> b.Benchlib.Programs.name = name)
    (Benchlib.Inputs.small_benchmarks ())

(* One full 1/4/8-PE run per benchmark, shared across the suite. *)
let report =
  let tbl = Hashtbl.create 4 in
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some r -> r
    | None ->
      let r = D.run (small name) in
      Hashtbl.add tbl name r;
      r

(* ---- the success-count lattice ---- *)

let lat_arb =
  QCheck.make ~print:Detan.Lattice.to_string
    (QCheck.Gen.oneofl Detan.Lattice.all)

let test_lattice_join =
  Test.make ~name:"join is a lub on the reporting chain" ~count:200
    (triple lat_arb lat_arb lat_arb) (fun (a, b, c) ->
      let open Detan.Lattice in
      equal (join a b) (join b a)
      && equal (join a (join b c)) (join (join a b) c)
      && equal (join a a) a
      && le a (join a b)
      && le b (join a b))

let test_lattice_seq =
  Test.make ~name:"seq: exactly_one unit, fails annihilator, symmetric"
    ~count:200 (pair lat_arb lat_arb) (fun (a, b) ->
      let open Detan.Lattice in
      equal (seq a b) (seq b a)
      && equal (seq Exactly_one a) a
      && equal (seq Fails a) Fails)

let test_lattice_alt_excl_refines =
  Test.make ~name:"exclusive alternation refines alternation" ~count:200
    (pair lat_arb lat_arb) (fun (a, b) ->
      let open Detan.Lattice in
      le (alt_excl a b) (alt a b))

let test_lattice_det_closed =
  Test.make ~name:"determinism closed under seq and alt_excl" ~count:200
    (pair lat_arb lat_arb) (fun (a, b) ->
      let open Detan.Lattice in
      (not (deterministic a && deterministic b))
      || (deterministic (seq a b) && deterministic (alt_excl a b)))

(* ---- the mutual-exclusion test ---- *)

let two_clauses src key =
  let db = Prolog.Database.of_string src in
  match Prolog.Database.clauses db key with
  | [ c1; c2 ] -> (db, c1, c2)
  | cs -> Alcotest.failf "expected two clauses, got %d" (List.length cs)

let patterns_of src entry =
  let db = Prolog.Database.of_string src in
  Analysis.Summary.patterns
    (Analysis.Analyze.database
       ~entries:[ Analysis.Analyze.entry_of_string entry ]
       db)

let test_guard_exclusion () =
  (* complementary guards over the SAME operand are exclusive ... *)
  let db, c1, c2 = two_clauses "g(X, a) :- X < 3.\ng(X, b) :- X >= 3.\n" ("g", 2) in
  Alcotest.(check bool) "X<3 vs X>=3" true
    (Detan.Exclusion.excluded ~db ~pred:("g", 2) c1 c2);
  (* ... complementary operators over DIFFERENT operands are not *)
  let src = Detan.Fixtures.guards.Benchlib.Programs.src in
  let db, c1, c2 = two_clauses src ("q", 4) in
  Alcotest.(check bool) "different operand paths" false
    (Detan.Exclusion.excluded ~db ~pred:("q", 4) c1 c2);
  (* the seeded sloppy-guards defect certifies exactly that chain *)
  Alcotest.(check bool) "sloppy guards accept it" true
    (Detan.Exclusion.excluded ~sloppy_guards:true ~db ~pred:("q", 4) c1 c2)

let test_struct_exclusion_needs_groundness () =
  let src = "main(R) :- p(a, R).\np(a, 1).\np(b, 2).\n" in
  let db, c1, c2 = two_clauses src ("p", 2) in
  (* without call patterns the first argument may be unbound at the
     call, so disjoint heads prove nothing *)
  Alcotest.(check bool) "no patterns: not excluded" false
    (Detan.Exclusion.excluded ~db ~pred:("p", 2) c1 c2);
  let patterns = patterns_of src "main(R)" in
  Alcotest.(check bool) "ground first arg: excluded" true
    (Detan.Exclusion.excluded ~patterns ~db ~pred:("p", 2) c1 c2);
  Alcotest.(check bool) "variable chain dead" true
    (Detan.Exclusion.dead_var ~patterns ("p", 2))

let test_cut_rules () =
  let db = Prolog.Database.of_string "a(X) :- !, b(X).\nc(X) :- b(X), !.\nb(1).\n" in
  let clause key =
    match Prolog.Database.clauses db key with
    | [ c ] -> c
    | _ -> Alcotest.fail "expected one clause"
  in
  Alcotest.(check bool) "leading cut commits" true
    (Detan.Exclusion.cut_leads db (clause ("a", 1)));
  Alcotest.(check bool) "cut after a call does not" false
    (Detan.Exclusion.cut_leads db (clause ("c", 1)));
  Alcotest.(check bool) "but has_cut sees it" true
    (Detan.Exclusion.has_cut db (clause ("c", 1)))

let test_certify_chain () =
  let src = "g(X, a) :- X < 3.\ng(X, b) :- X >= 3.\n" in
  let db = Prolog.Database.of_string src in
  let cs = Prolog.Database.clauses db ("g", 2) in
  Alcotest.(check bool) "complementary-guard chain certified" true
    (Detan.Exclusion.certify_chain ~db ~pred:("g", 2) cs);
  let src = Detan.Fixtures.guards.Benchlib.Programs.src in
  let db = Prolog.Database.of_string src in
  let cs = Prolog.Database.clauses db ("q", 4) in
  Alcotest.(check bool) "fixture chain refused" false
    (Detan.Exclusion.certify_chain ~db ~pred:("q", 4) cs);
  Alcotest.(check bool) "fixture chain certified by the defect" true
    (Detan.Exclusion.certify_chain ~sloppy_guards:true ~db ~pred:("q", 4) cs)

(* ---- per-benchmark certification decisions ---- *)

let test_benchmark_certification () =
  (* (certified chains, dead variable chains) per benchmark; the
     counts are compile-time facts of the program text, independent of
     input size *)
  let expect = [ ("deriv", true); ("tak", true); ("qsort", true); ("matrix", true) ] in
  List.iter
    (fun (name, any) ->
      let r = report name in
      Alcotest.(check bool) (name ^ " certified chains") any
        (r.a.Detan.Instance.certified <> []);
      let el = Detan.Instance.elision r in
      Alcotest.(check bool) (name ^ " det <= total") true
        (el.chains_det <= el.chains_total);
      Alcotest.(check int) (name ^ " per-pred sums") el.chains_total
        (List.fold_left (fun acc (_, (t, _)) -> acc + t) 0 el.per_pred))
    expect

let test_fixtures_uncertified () =
  (* the defect probes are shaped so the SOUND analysis refuses them *)
  List.iter
    (fun (b : Benchlib.Programs.benchmark) ->
      let a = (D.analyze b).a in
      Alcotest.(check (list string))
        (b.Benchlib.Programs.name ^ " nothing certified")
        []
        (List.map
           (fun (ci : Wam.Compile.chain_info) ->
             Printf.sprintf "%s/%d" (fst ci.ci_pred) (snd ci.ci_pred))
           (a.Detan.Instance.certified @ a.Detan.Instance.dead)))
    Detan.Fixtures.all

(* ---- the dynamic oracle and the savings ---- *)

let test_oracle_and_answers () =
  List.iter
    (fun name ->
      let r = report name in
      Alcotest.(check (list int))
        (name ^ " PE counts") [ 1; 4; 8 ]
        (List.map (fun (p : _ Certification.run) -> p.n_pes) r.runs);
      Alcotest.(check bool) (name ^ " oracle_ok") true r.oracle_ok;
      Alcotest.(check bool) (name ^ " answers_ok") true r.answers_ok;
      Alcotest.(check bool) (name ^ " lint_clean") true r.lint_clean;
      Alcotest.(check bool) (name ^ " det trace clean") true r.trace_ok)
    bench_names

let test_cp_refs_drop () =
  (* ISSUE acceptance: choice-point references strictly below baseline
     at every PE count on the three benchmarks with certified chains *)
  List.iter
    (fun name ->
      let r = report name in
      Alcotest.(check bool) (name ^ " cp_drop") true (Detan.Instance.cp_drop r);
      Alcotest.(check bool) (name ^ " trail_drop") true
        (Detan.Instance.trail_drop r);
      List.iter
        (fun (p : Detan.Instance.oracle Certification.run) ->
          let base, det = Detan.Instance.area_pair p Trace.Area.Choice_point in
          Alcotest.(check bool)
            (Printf.sprintf "%s@%dPE cp strictly lower" name p.n_pes)
            true (det < base);
          Alcotest.(check bool)
            (Printf.sprintf "%s@%dPE something elided" name p.n_pes)
            true
            ((Detan.Instance.det p).cp_elided > 0))
        r.runs)
    [ "deriv"; "tak"; "qsort" ]

let test_det_qcheck =
  (* a random benchmark at a random PE count keeps its answers and
     never backtracks into an elided alternative *)
  Test.make ~name:"det answers equal baseline at random PE counts" ~count:6
    (pair (oneofl bench_names) (int_range 1 8)) (fun (name, n_pes) ->
      let r = D.run ~pes:[ n_pes ] (small name) in
      r.oracle_ok && r.answers_ok)

(* ---- elision counters: machine and per-predicate profile ---- *)

let guard_src = "f(N, a) :- N < 3.\nf(N, b) :- N >= 3.\n"

let det_plan_for src query =
  Detan.Exclusion.plan ~patterns:(patterns_of src query) ()

let run_seq ?det src query =
  let prog = Wam.Program.prepare ~parallel:false ?det ~src ~query () in
  let p = Wam.Profile.create prog.Wam.Program.symbols prog.Wam.Program.code in
  let result, m = Wam.Seq.run ~sink:(Wam.Profile.sink p) prog in
  (result, m, p)

let profile_counters p spec =
  match
    List.find_opt (fun c -> Wam.Profile.spec p c = spec) (Wam.Profile.ranked p)
  with
  | Some c -> (c.Wam.Profile.cp_created, c.Wam.Profile.cp_elided)
  | None -> Alcotest.failf "no profile row for %s" spec

let test_elision_counters () =
  let query = "f(1, A)" in
  let _, m0, p0 = run_seq guard_src query in
  Alcotest.(check bool) "baseline pushes a choice point" true
    (m0.Wam.Machine.cp_created > 0);
  Alcotest.(check int) "baseline elides nothing" 0 m0.Wam.Machine.cp_elided;
  let det = det_plan_for guard_src query in
  let result, m1, p1 = run_seq ~det guard_src query in
  (match result with
  | Wam.Seq.Success [ ("A", Prolog.Term.Atom "a") ] -> ()
  | _ -> Alcotest.fail "det run lost the answer");
  Alcotest.(check int) "det run pushes none" 0 m1.Wam.Machine.cp_created;
  Alcotest.(check bool) "det run elides" true (m1.Wam.Machine.cp_elided > 0);
  (* the per-predicate profile attributes the same events to f/2 *)
  let created, elided = profile_counters p0 "f/2" in
  Alcotest.(check bool) "profile: baseline try" true (created > 0);
  Alcotest.(check int) "profile: baseline no det_try" 0 elided;
  let created, elided = profile_counters p1 "f/2" in
  Alcotest.(check int) "profile: det no try" 0 created;
  Alcotest.(check bool) "profile: det_try counted" true (elided > 0)

(* ---- first-argument indexing edge cases under det compilation ---- *)

let answers ?det src query =
  let prog = Wam.Program.prepare ~parallel:false ?det ~src ~query () in
  let solutions, _ = Wam.Seq.run_all prog in
  List.map
    (fun bindings ->
      String.concat ","
        (List.map
           (fun (v, t) -> v ^ "=" ^ Prolog.Pretty.to_string t)
           bindings))
    solutions

let test_indexing_edge_cases () =
  let check_same name src query =
    let base = answers src query in
    let det = answers ~det:(det_plan_for src query) src query in
    Alcotest.(check (list string)) name base det
  in
  (* empty sub-switch bucket: only integer clauses, called with a
     struct / an atom -- both dispatch into an empty bucket and fail *)
  let ints = "h(1).\nh(2).\n" in
  check_same "struct into int-only switch" ints "h(f(9))";
  check_same "atom into int-only switch" ints "h(a)";
  Alcotest.(check (list string)) "empty bucket fails" [] (answers ints "h(a)");
  (* var-headed clause falls through into every bucket *)
  let fallthrough = "m(a).\nm(X) :- X = b.\n" in
  check_same "var head, open call" fallthrough "m(Z)";
  Alcotest.(check int) "both clauses reached" 2
    (List.length (answers fallthrough "m(Z)"));
  check_same "var head, bound call" fallthrough "m(b)";
  (* single-clause buckets backtrack across buckets correctly *)
  let mixed = "k(1, one).\nk(a, atom).\nk(f(_), str).\n" in
  check_same "int bucket" mixed "k(1, R)";
  check_same "atom bucket" mixed "k(a, R)";
  check_same "struct bucket" mixed "k(f(0), R)";
  check_same "open call sees all" mixed "k(X, R)";
  Alcotest.(check int) "three clauses reached" 3
    (List.length (answers mixed "k(X, R)"))

let test_det_answers_qcheck =
  (* randomized goals: the certified arithmetic dispatch must
     enumerate the same answer set with and without elision *)
  Test.make ~name:"det answer sets match on random goals" ~count:40
    (int_range (-5) 5) (fun n ->
      let src = "d(0, zero).\nd(N, pos) :- N > 0.\nd(N, neg) :- N < 0.\n" in
      let query = Printf.sprintf "d(%d, A)" n in
      answers src query = answers ~det:(det_plan_for src query) src query)

(* ---- parcall failure recovery across the trail-condition floors ---- *)

let test_parcall_failure_recovery () =
  (* the left arm binds its output through a certified chain (no
     choice point under --det), the right arm fails: recovery must
     untrail that binding via the parcall frame's floor -- the
     deterministic code popped no choice point that would have carried
     it -- and fall back to the second clause of p *)
  let b =
    {
      Benchlib.Programs.name = "dt_recover";
      src =
        "p(A) :- q(X) & r(Y), A = f(X, Y).\np(9).\nq(X) :- s(1, X).\n\
         s(N, a) :- N < 3.\ns(N, b) :- N >= 3.\nr(_) :- fail.\n";
      query = "p(A)";
      answer_var = "A";
    }
  in
  let seq = Benchlib.Runner.run_wam b in
  let r = D.analyze b in
  let transform = r.front.transform in
  Alcotest.(check int) "s/2 chain certified" 1
    (List.length r.a.Detan.Instance.certified);
  List.iter
    (fun n_pes ->
      let base = Benchlib.Runner.run_rapwam ~transform ~n_pes b in
      let det =
        Benchlib.Runner.run_rapwam ~transform ~det:r.a.Detan.Instance.plan ~n_pes b
      in
      Alcotest.(check bool)
        (Printf.sprintf "recovery matches WAM at %d PEs" n_pes)
        true
        (Benchlib.Runner.answers_agree seq base);
      Alcotest.(check bool)
        (Printf.sprintf "det recovery matches at %d PEs" n_pes)
        true
        (Benchlib.Runner.answers_agree base det);
      Alcotest.(check bool)
        (Printf.sprintf "elision happened inside the parcall at %d PEs" n_pes)
        true
        (det.Benchlib.Runner.cp_elided > 0))
    [ 1; 2; 4 ]

(* ---- annotator det-arms stat ---- *)

let test_det_arms_stat () =
  (* deriv's CGE arms all call d/3, which the lattice grades
     deterministic, so every emitted arm is counted; an always-false
     judgment counts none *)
  let r = report "deriv" in
  Alcotest.(check bool) "deriv has det arms" true (r.a.Detan.Instance.det_arms > 0);
  let b = small "deriv" in
  let db = Prolog.Database.of_string b.Benchlib.Programs.src in
  let _, stats =
    Prolog.Annotate.database_stats ~patterns:r.front.patterns
      ~determinacy:(fun _ -> false)
      db
  in
  Alcotest.(check int) "false judgment counts none" 0
    stats.Prolog.Annotate.det_arms

let suite =
  [
    QCheck_alcotest.to_alcotest test_lattice_join;
    QCheck_alcotest.to_alcotest test_lattice_seq;
    QCheck_alcotest.to_alcotest test_lattice_alt_excl_refines;
    QCheck_alcotest.to_alcotest test_lattice_det_closed;
    Alcotest.test_case "guard exclusion" `Quick test_guard_exclusion;
    Alcotest.test_case "structural exclusion needs groundness" `Quick
      test_struct_exclusion_needs_groundness;
    Alcotest.test_case "cut rules" `Quick test_cut_rules;
    Alcotest.test_case "chain certification" `Quick test_certify_chain;
    Alcotest.test_case "benchmark certification" `Quick
      test_benchmark_certification;
    Alcotest.test_case "fixtures uncertified" `Quick test_fixtures_uncertified;
    Alcotest.test_case "oracle and answers at 1/4/8 PEs" `Quick
      test_oracle_and_answers;
    Alcotest.test_case "choice-point refs drop" `Quick test_cp_refs_drop;
    QCheck_alcotest.to_alcotest test_det_qcheck;
    Alcotest.test_case "elision counters" `Quick test_elision_counters;
    Alcotest.test_case "first-arg indexing edge cases" `Quick
      test_indexing_edge_cases;
    QCheck_alcotest.to_alcotest test_det_answers_qcheck;
    Alcotest.test_case "parcall failure recovery" `Quick
      test_parcall_failure_recovery;
    Alcotest.test_case "annotator det-arms stat" `Quick test_det_arms_stat;
  ]
