(* Tests for the mode-driven automatic CGE annotator. *)

let annotate src = Prolog.Annotate.database (Prolog.Database.of_string src)

let parcalls db = Prolog.Database.parallel_call_count db

let clause_body db key idx =
  (List.nth (Prolog.Database.clauses db key) idx).Prolog.Database.body

let test_fib_unconditional () =
  let db =
    annotate
      ":- mode fib(+, -).\n\
       fib(0, 1). fib(1, 1).\n\
       fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2,\n\
      \  fib(N1, F1), fib(N2, F2), F is F1 + F2.\n"
  in
  Alcotest.(check int) "one parcall" 1 (parcalls db);
  match clause_body db ("fib", 2) 2 with
  | [ _; _; _; Prolog.Cge.Par { checks; arms }; _ ] ->
    Alcotest.(check int) "no checks" 0 (List.length checks);
    Alcotest.(check int) "two arms" 2 (List.length arms)
  | items -> Alcotest.failf "unexpected body shape (%d items)" (List.length items)

let test_shared_unknown_gets_ground_check () =
  (* p's two goals share X, whose state is unknown: ground(X) check *)
  let db =
    annotate ":- mode p(?).\np(X) :- q(X), r(X).\nq(_). r(_).\n"
  in
  match clause_body db ("p", 1) 0 with
  | [ Prolog.Cge.Par { checks = [ Prolog.Cge.Ground (Prolog.Term.Var "X") ]; _ } ]
    ->
    ()
  | [ Prolog.Cge.Par { checks; _ } ] ->
    Alcotest.failf "wrong checks (%d)" (List.length checks)
  | _ -> Alcotest.fail "expected one conditional parcall"

let test_shared_ground_no_check () =
  let db = annotate ":- mode p(+).\np(X) :- q(X), r(X).\nq(_). r(_).\n" in
  match clause_body db ("p", 1) 0 with
  | [ Prolog.Cge.Par { checks = []; _ } ] -> ()
  | _ -> Alcotest.fail "expected one unconditional parcall"

let test_shared_free_stays_sequential () =
  (* producer/consumer through a fresh variable: dependent *)
  let db = annotate "p(R) :- q(X), r(X, R).\nq(_). r(_, _).\n" in
  Alcotest.(check int) "no parcalls" 0 (parcalls db)

let test_distinct_unknowns_get_indep_check () =
  let db =
    annotate ":- mode p(?, ?).\np(X, Y) :- q(X), r(Y).\nq(_). r(_).\n"
  in
  match clause_body db ("p", 2) 0 with
  | [ Prolog.Cge.Par { checks = [ Prolog.Cge.Indep _ ]; _ } ] -> ()
  | [ Prolog.Cge.Par { checks; _ } ] ->
    Alcotest.failf "expected 1 indep check, got %d" (List.length checks)
  | _ -> Alcotest.fail "expected one conditional parcall"

let test_fresh_outputs_independent () =
  (* distinct fresh output variables need no checks *)
  let db =
    annotate ":- mode p(+, -, -).\np(N, A, B) :- q(N, A), r(N, B).\n\
              q(_, 1). r(_, 2).\n"
  in
  match clause_body db ("p", 3) 0 with
  | [ Prolog.Cge.Par { checks = []; arms } ] ->
    Alcotest.(check int) "two arms" 2 (List.length arms)
  | _ -> Alcotest.fail "expected an unconditional parcall"

let test_builtins_break_groups () =
  (* an arithmetic test between calls forces sequential sections *)
  let db =
    annotate
      ":- mode p(+).\np(N) :- q(N), N > 0, r(N).\nq(_). r(_).\n"
  in
  Alcotest.(check int) "no parcalls" 0 (parcalls db)

let test_cut_breaks_groups () =
  let db = annotate ":- mode p(+).\np(N) :- q(N), !, r(N).\nq(_). r(_).\n" in
  Alcotest.(check int) "no parcalls" 0 (parcalls db)

let test_three_way_group () =
  let db =
    annotate
      ":- mode t(+, -, -, -).\n\
       t(N, A, B, C) :- q(N, A), q(N, B), q(N, C).\nq(_, 1).\n"
  in
  match clause_body db ("t", 4) 0 with
  | [ Prolog.Cge.Par { checks = []; arms } ] ->
    Alcotest.(check int) "three arms" 3 (List.length arms)
  | _ -> Alcotest.fail "expected a three-goal parcall"

let test_existing_annotations_kept () =
  let db = annotate "p(X, Y) :- q(X) & q(Y).\nq(_).\n" in
  Alcotest.(check int) "kept" 1 (parcalls db)

let test_mode_declarations_parse () =
  let modes =
    Prolog.Modes.of_database
      (Prolog.Database.of_string ":- mode f(+, -, ?).\nf(_, _, _).\n")
  in
  match Prolog.Modes.lookup modes ~name:"f" ~arity:3 with
  | Some [ Prolog.Modes.Ground_in; Prolog.Modes.Free_in_ground_out;
           Prolog.Modes.Unknown ] ->
    ()
  | Some _ -> Alcotest.fail "wrong modes"
  | None -> Alcotest.fail "mode not found"

let test_annotated_program_runs_correctly () =
  (* end to end: plain program, auto-annotated, parallel answers match *)
  let src =
    ":- mode fib(+, -).\n\
     fib(0, 1). fib(1, 1).\n\
     fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2,\n\
    \  fib(N1, F1), fib(N2, F2), F is F1 + F2.\n"
  in
  let query = "fib(13, F)" in
  let seq, _ = Wam.Seq.solve ~src ~query () in
  let prog =
    Wam.Program.of_database ~parallel:true
      (Prolog.Annotate.database (Prolog.Database.of_string src))
      ~query ()
  in
  let sim = Rapwam.Sim.create ~n_workers:4 prog in
  let par = Rapwam.Sim.run_prepared sim prog in
  (match (seq, par) with
  | Wam.Seq.Success b1, Wam.Seq.Success b2 ->
    Alcotest.(check string) "same answer"
      (Prolog.Pretty.to_string (List.assoc "F" b1))
      (Prolog.Pretty.to_string (List.assoc "F" b2))
  | _, _ -> Alcotest.fail "runs disagree");
  Alcotest.(check bool) "parallelism exploited" true
    (sim.Rapwam.Sim.m.Wam.Machine.parcalls > 0)

let test_conditional_fallback_correct () =
  (* shared-variable input must fall back and still be correct *)
  let src =
    ":- mode walk(?, -).\n\
     walk(leaf, 0).\n\
     walk(t(L, _, R), N) :- walk(L, NL), walk(R, NR), N is NL + NR + 1.\n"
  in
  let query = "T = t(t(leaf, X, leaf), X, t(leaf, X, leaf)), walk(T, N)" in
  let prog =
    Wam.Program.of_database ~parallel:true
      (Prolog.Annotate.database (Prolog.Database.of_string src))
      ~query ()
  in
  let sim = Rapwam.Sim.create ~n_workers:4 prog in
  match Rapwam.Sim.run_prepared sim prog with
  | Wam.Seq.Success b ->
    Alcotest.(check string) "count" "3"
      (Prolog.Pretty.to_string (List.assoc "N" b))
  | Wam.Seq.Failure -> Alcotest.fail "walk failed"

let test_annotated_source_reparses () =
  let src =
    ":- mode fib(+, -).\n\
     fib(0, 1). fib(1, 1).\n\
     fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2,\n\
    \  fib(N1, F1), fib(N2, F2), F is F1 + F2.\n"
  in
  let annotated = annotate src in
  let text = Format.asprintf "%a" Prolog.Annotate.pp_database annotated in
  let db2 = Prolog.Database.of_string text in
  Alcotest.(check int) "same parcalls after reparse" (parcalls annotated)
    (parcalls db2);
  Alcotest.(check int) "same clauses"
    (Prolog.Database.clause_count annotated)
    (Prolog.Database.clause_count db2)

(* A call e(A, B, B) against e(X, X, Z) aliases X with Z: a head
   variable repeated across argument positions is never fresh, whatever
   the mode of its first position says.  Both the local and the global
   annotation check indep(Z, X), and the annotated program gives the
   WAM's answer at 1 and 4 PEs. *)
let test_repeated_head_variable () =
  let src =
    ":- mode e(-, ?, ?).\ne(X, X, Z) :- q(X), r(Z).\nq(a). q(c). r(c).\n"
  in
  let query = "e(A, B, B)" in
  let db = Prolog.Database.of_string src in
  let patterns =
    Analysis.Summary.patterns
      (Analysis.Analyze.database
         ~entries:[ Analysis.Analyze.entry_of_string query ]
         db)
  in
  let answer = function
    | Wam.Seq.Failure -> "no"
    | Wam.Seq.Success b ->
      String.concat ", "
        (List.map (fun (v, t) -> v ^ " = " ^ Prolog.Pretty.to_string t) b)
  in
  let seq, _ = Wam.Seq.solve ~src ~query () in
  Alcotest.(check string) "the WAM's answer" "A = c, B = c" (answer seq);
  List.iter
    (fun (label, annotated) ->
      (match clause_body annotated ("e", 3) 0 with
      | [ Prolog.Cge.Par
            {
              checks =
                [ Prolog.Cge.Indep (Prolog.Term.Var "Z", Prolog.Term.Var "X") ];
              _;
            } ] ->
        ()
      | _ -> Alcotest.failf "%s: expected (indep(Z,X) | q(X) & r(Z))" label);
      List.iter
        (fun n ->
          let prog =
            Wam.Program.of_database ~parallel:true annotated ~query ()
          in
          let sim = Rapwam.Sim.create ~n_workers:n prog in
          Alcotest.(check string)
            (Printf.sprintf "%s at %d PEs" label n)
            (answer seq)
            (answer (Rapwam.Sim.run_prepared sim prog)))
        [ 1; 4 ])
    [
      ("local", Prolog.Annotate.database db);
      ("global", Prolog.Annotate.database ~patterns db);
    ]

(* ---- pins: the annotator's printed output on the nine benchmarks ---- *)

(* Eight configurations per benchmark, in this order: as written, then
   after [Database.sequentialize]; within each, local, local with
   cost-based granularity control at 150 data references, global (the
   analysis entered at the benchmark's query), global with granularity
   control. *)
let pin_configs =
  List.concat_map
    (fun sequential ->
      List.concat_map
        (fun global ->
          List.map (fun granularity -> (sequential, global, granularity))
            [ false; true ])
        [ false; true ])
    [ false; true ]

let annotation_digest (b : Benchlib.Programs.benchmark)
    (sequential, global, granularity) =
  let db = Prolog.Database.of_string b.Benchlib.Programs.src in
  let db = if sequential then Prolog.Database.sequentialize db else db in
  let patterns =
    if global then
      Some
        (Analysis.Summary.patterns
           (Analysis.Analyze.database
              ~entries:
                [ Analysis.Analyze.entry_of_string b.Benchlib.Programs.query ]
              db))
    else None
  in
  let granularity =
    if granularity then
      Some
        (Costan.Analyze.annotator (Costan.Analyze.analyze db) ~threshold:150)
    else None
  in
  let text =
    Format.asprintf "%a" Prolog.Annotate.pp_database
      (Prolog.Annotate.database ?patterns ?granularity db)
  in
  Digest.to_hex (Digest.string text)

(* benchmark -> the eight digests, in [pin_configs] order *)
let annotation_pins =
  [
    ("deriv",
     [ "1ae920f9d4166ed43eef7dc2a59f66e8";
       "d27f1d872c84028f05dc3892fdfee8df";
       "1ae920f9d4166ed43eef7dc2a59f66e8";
       "d27f1d872c84028f05dc3892fdfee8df";
       "4648b96e355a7c0adc6e1b64e05045fa";
       "a7ab5ea9ba900b357a337a67be38898b";
       "e01406766c90e7e3710d2e5533cffabf";
       "87ba311449bbdf4a48506ee49cd85207" ]);
    ("tak",
     [ "a948e75cca74becd966f9763980398e1";
       "a948e75cca74becd966f9763980398e1";
       "a948e75cca74becd966f9763980398e1";
       "a948e75cca74becd966f9763980398e1";
       "a948e75cca74becd966f9763980398e1";
       "a948e75cca74becd966f9763980398e1";
       "a948e75cca74becd966f9763980398e1";
       "a948e75cca74becd966f9763980398e1" ]);
    ("qsort",
     [ "dd26e92976ccf9daab1d63b9da30e74c";
       "dd26e92976ccf9daab1d63b9da30e74c";
       "dd26e92976ccf9daab1d63b9da30e74c";
       "dd26e92976ccf9daab1d63b9da30e74c";
       "0dfe383703866a40095d94b9b30100bb";
       "0dfe383703866a40095d94b9b30100bb";
       "0dfe383703866a40095d94b9b30100bb";
       "0dfe383703866a40095d94b9b30100bb" ]);
    ("matrix",
     [ "93330dd4e5b64e30a1f7a7e71a093349";
       "93330dd4e5b64e30a1f7a7e71a093349";
       "602fcced9435f36fb09b793d0480a29c";
       "602fcced9435f36fb09b793d0480a29c";
       "83e7583ac766ed2cb5aacd03ca9eeea6";
       "83e7583ac766ed2cb5aacd03ca9eeea6";
       "602fcced9435f36fb09b793d0480a29c";
       "602fcced9435f36fb09b793d0480a29c" ]);
    ("nrev",
     [ "489385f8e4d0abbf6bed558c86236a48";
       "489385f8e4d0abbf6bed558c86236a48";
       "489385f8e4d0abbf6bed558c86236a48";
       "489385f8e4d0abbf6bed558c86236a48";
       "489385f8e4d0abbf6bed558c86236a48";
       "489385f8e4d0abbf6bed558c86236a48";
       "489385f8e4d0abbf6bed558c86236a48";
       "489385f8e4d0abbf6bed558c86236a48" ]);
    ("queens",
     [ "b681602c029f36446846c229756774f9";
       "b681602c029f36446846c229756774f9";
       "605f7d47dc7a75467d8e17a601064287";
       "605f7d47dc7a75467d8e17a601064287";
       "b681602c029f36446846c229756774f9";
       "b681602c029f36446846c229756774f9";
       "605f7d47dc7a75467d8e17a601064287";
       "605f7d47dc7a75467d8e17a601064287" ]);
    ("query",
     [ "44c85d1db5594154defb627a7aca2293";
       "44c85d1db5594154defb627a7aca2293";
       "b34cb084c92128022735b5f68155c55a";
       "b34cb084c92128022735b5f68155c55a";
       "44c85d1db5594154defb627a7aca2293";
       "44c85d1db5594154defb627a7aca2293";
       "b34cb084c92128022735b5f68155c55a";
       "b34cb084c92128022735b5f68155c55a" ]);
    ("primes",
     [ "80cab24d4d325fb8aa852755d308ce4a";
       "80cab24d4d325fb8aa852755d308ce4a";
       "80cab24d4d325fb8aa852755d308ce4a";
       "80cab24d4d325fb8aa852755d308ce4a";
       "80cab24d4d325fb8aa852755d308ce4a";
       "80cab24d4d325fb8aa852755d308ce4a";
       "80cab24d4d325fb8aa852755d308ce4a";
       "80cab24d4d325fb8aa852755d308ce4a" ]);
    ("serialise",
     [ "54b1fa0f5061e76c6b3b32caede1a75c";
       "54b1fa0f5061e76c6b3b32caede1a75c";
       "5d76de338d4c575a275305dfb30af223";
       "5d76de338d4c575a275305dfb30af223";
       "54b1fa0f5061e76c6b3b32caede1a75c";
       "54b1fa0f5061e76c6b3b32caede1a75c";
       "5d76de338d4c575a275305dfb30af223";
       "5d76de338d4c575a275305dfb30af223" ]);
  ]

let test_annotation_pins () =
  let benches =
    Benchlib.Inputs.small_benchmarks () @ Benchlib.Large.population ()
  in
  Alcotest.(check int) "nine benchmarks" 9 (List.length benches);
  List.iter
    (fun (b : Benchlib.Programs.benchmark) ->
      let name = b.Benchlib.Programs.name in
      let got = List.map (annotation_digest b) pin_configs in
      match List.assoc_opt name annotation_pins with
      | None -> Alcotest.failf "%s: no pin" name
      | Some want -> Alcotest.(check (list string)) name want got)
    benches

let suite =
  [
    Alcotest.test_case "fib unconditional" `Quick test_fib_unconditional;
    Alcotest.test_case "shared unknown -> ground check" `Quick
      test_shared_unknown_gets_ground_check;
    Alcotest.test_case "shared ground -> no check" `Quick
      test_shared_ground_no_check;
    Alcotest.test_case "shared free -> sequential" `Quick
      test_shared_free_stays_sequential;
    Alcotest.test_case "distinct unknowns -> indep" `Quick
      test_distinct_unknowns_get_indep_check;
    Alcotest.test_case "fresh outputs independent" `Quick
      test_fresh_outputs_independent;
    Alcotest.test_case "builtins break groups" `Quick test_builtins_break_groups;
    Alcotest.test_case "cut breaks groups" `Quick test_cut_breaks_groups;
    Alcotest.test_case "three-way group" `Quick test_three_way_group;
    Alcotest.test_case "existing annotations kept" `Quick
      test_existing_annotations_kept;
    Alcotest.test_case "mode parsing" `Quick test_mode_declarations_parse;
    Alcotest.test_case "annotated program runs" `Quick
      test_annotated_program_runs_correctly;
    Alcotest.test_case "conditional fallback" `Quick
      test_conditional_fallback_correct;
    Alcotest.test_case "annotated source reparses" `Quick
      test_annotated_source_reparses;
    Alcotest.test_case "repeated head variable -> indep" `Quick
      test_repeated_head_variable;
    Alcotest.test_case "pins on the nine benchmarks" `Quick
      test_annotation_pins;
  ]
