(* Edge-case coverage: parser corner cases, every arithmetic operator,
   term-order details, structure builtins, parallel stress runs, and
   cache-protocol corners not covered by the main suites. *)

let parse = Prolog.Parser.term_of_string
let show = Prolog.Pretty.to_string

let answer ?(src = "") query var =
  match Wam.Seq.solve ~src ~query () with
  | Wam.Seq.Success b, _ -> show (List.assoc var b)
  | Wam.Seq.Failure, _ -> Alcotest.failf "query %S failed" query

let succeeds ?(src = "") query =
  match Wam.Seq.solve ~src ~query () with
  | Wam.Seq.Success _, _ -> ()
  | Wam.Seq.Failure, _ -> Alcotest.failf "query %S failed" query

let fails ?(src = "") query =
  match Wam.Seq.solve ~src ~query () with
  | Wam.Seq.Failure, _ -> ()
  | Wam.Seq.Success _, _ -> Alcotest.failf "query %S should fail" query

(* ---------------- parser corners ---------------- *)

let test_quoted_atoms () =
  (match parse "'hello world'" with
  | Prolog.Term.Atom "hello world" -> ()
  | t -> Alcotest.failf "quoted: %s" (show t));
  (match parse "'it''s'" with
  | Prolog.Term.Atom "it's" -> ()
  | t -> Alcotest.failf "doubled quote: %s" (show t));
  (match parse "'a\\nb'" with
  | Prolog.Term.Atom "a\nb" -> ()
  | t -> Alcotest.failf "escape: %s" (show t));
  match parse "'f oo'(1)" with
  | Prolog.Term.Struct ("f oo", [ Prolog.Term.Int 1 ]) -> ()
  | t -> Alcotest.failf "quoted functor: %s" (show t)

let test_symbolic_atoms () =
  (match parse "a = b" with
  | Prolog.Term.Struct ("=", _) -> ()
  | t -> Alcotest.failf "=: %s" (show t));
  (match parse "X == Y" with
  | Prolog.Term.Struct ("==", _) -> ()
  | t -> Alcotest.failf "==: %s" (show t));
  match parse "+(1, 2)" with
  | Prolog.Term.Struct ("+", [ Prolog.Term.Int 1; Prolog.Term.Int 2 ]) -> ()
  | t -> Alcotest.failf "prefix application: %s" (show t)

let test_operator_precedence_details () =
  (* a - b - c is (a-b)-c; a^b^c is a^(b^c) *)
  (match parse "1 - 2 - 3" with
  | Prolog.Term.Struct ("-", [ Prolog.Term.Struct ("-", _); _ ]) -> ()
  | t -> Alcotest.failf "yfx -: %s" (show t));
  (match parse "2 ^ 3 ^ 4" with
  | Prolog.Term.Struct ("^", [ _; Prolog.Term.Struct ("^", _) ]) -> ()
  | t -> Alcotest.failf "xfy ^: %s" (show t));
  (* unary minus over application: -f(X) *)
  (match parse "- f(X)" with
  | Prolog.Term.Struct ("-", [ Prolog.Term.Struct ("f", _) ]) -> ()
  | t -> Alcotest.failf "unary over app: %s" (show t));
  (* comparison binds looser than arithmetic *)
  match parse "X + 1 < Y * 2" with
  | Prolog.Term.Struct ("<", [ Prolog.Term.Struct ("+", _); Prolog.Term.Struct ("*", _) ]) -> ()
  | t -> Alcotest.failf "< prec: %s" (show t)

let test_curly_braces () =
  (match parse "{}" with
  | Prolog.Term.Atom "{}" -> ()
  | t -> Alcotest.failf "{}: %s" (show t));
  match parse "{a, b}" with
  | Prolog.Term.Struct ("{}", [ Prolog.Term.Struct (",", _) ]) -> ()
  | t -> Alcotest.failf "{t}: %s" (show t)

let test_nested_list_tails () =
  match parse "[a|[b|[c|[]]]]" with
  | t -> Alcotest.(check string) "normalizes" "[a, b, c]" (show t)

(* ---------------- arithmetic operators ---------------- *)

let test_all_arith_ops () =
  let check q expect = Alcotest.(check string) q expect (answer q "X") in
  check "X is 7 // 2" "3";
  check "X is -7 // 2" "-3";
  check "X is 7 mod 3" "1";
  check "X is -7 mod 3" "2" (* floored modulo *);
  check "X is -7 rem 3" "-1" (* truncated remainder *);
  check "X is min(3, 5)" "3";
  check "X is max(3, 5)" "5";
  check "X is abs(-9)" "9";
  check "X is sign(-9)" "-1";
  check "X is sign(0)" "0";
  check "X is 1 << 4" "16";
  check "X is 256 >> 4" "16";
  check "X is 12 /\\ 10" "8";
  check "X is 12 \\/ 10" "14";
  check "X is 2 + 3 * 4 - 1" "13";
  (* division by zero is a runtime error, not a failure *)
  match Wam.Seq.solve ~src:"" ~query:"X is 1 // 0" () with
  | exception Wam.Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "division by zero should error"

let test_arith_errors () =
  (match Wam.Seq.solve ~src:"" ~query:"X is Y + 1" () with
  | exception Wam.Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "unbound arith should error");
  match Wam.Seq.solve ~src:"" ~query:"X is foo + 1" () with
  | exception Wam.Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "atom arith should error"

let test_comparison_chain () =
  succeeds "1 < 2, 2 =< 2, 3 >= 3, 4 > 3, 5 =:= 5, 5 =\\= 6"

(* ---------------- term order, functor, univ ---------------- *)

let test_standard_order_details () =
  (* Var < Num < Atom < Compound *)
  succeeds "X @< 0";
  succeeds "0 @< a";
  succeeds "a @< f(a)";
  (* compound: arity first, then name, then args *)
  succeeds "f(a) @< g(a)";
  succeeds "g(a) @< f(a, a)";
  succeeds "f(a, a) @< f(a, b)";
  succeeds "[a] @< [b]";
  succeeds "f(1, 2) == f(1, 2)";
  fails "f(1, 2) @< f(1, 2)"

let test_functor_construct_list () =
  (* the atom '.' alone prints quoted: a bare "." would end the clause *)
  Alcotest.(check string) "functor of list" "'.'" (answer "functor([a], F, N)" "F");
  Alcotest.(check string) "arity of list" "2" (answer "functor([a], F, N)" "N");
  succeeds "functor(T, '.', 2), T = [H|R]"

let test_univ_roundtrip () =
  Alcotest.(check string) "decompose" "[foo, 1, [2]]"
    (answer "foo(1, [2]) =.. L" "L");
  Alcotest.(check string) "atom" "[bar]" (answer "bar =.. L" "L");
  Alcotest.(check string) "rebuild" "foo(x, y)"
    (answer "T =.. [foo, x, y]" "T");
  Alcotest.(check string) "list via univ" "[1, 2]"
    (answer "T =.. ['.', 1, [2]]" "T")

let test_arg_bounds () =
  succeeds "arg(1, f(a, b), a)";
  fails "arg(3, f(a, b), _)";
  fails "arg(0, f(a, b), _)"

(* ---------------- control-flow corners ---------------- *)

let test_cut_in_ite_is_local () =
  (* the cut inside an if-then-else condition must not cut the caller *)
  let src = "p(1). p(2).\nq(X) :- p(X), (X > 1 -> true ; fail)." in
  Alcotest.(check string) "backtracks into p" "2" (answer ~src "q(X)" "X")

let test_nested_disjunction () =
  let src = "p(X) :- (X = a ; (X = b ; X = c))." in
  succeeds ~src "p(c)";
  Alcotest.(check string) "first" "a" (answer ~src "p(X)" "X")

let test_naf_of_conjunction () =
  let src = "p(1). q(2).\nr(X) :- \\+ (p(X), q(X))." in
  succeeds ~src "r(1)" (* p(1) holds but q(1) fails *);
  succeeds ~src "r(3)"

let test_deep_recursion_with_choice_points () =
  (* alternating clauses that leave CPs; make sure stacks survive *)
  let src =
    "walk(0).\nwalk(N) :- N > 0, N1 is N - 1, walk(N1).\nwalk(_) :- fail.\n"
  in
  succeeds ~src "walk(20000)"

(* ---------------- parallel stress ---------------- *)

let test_qsort_32_pes () =
  let bench =
    List.find
      (fun b -> b.Benchlib.Programs.name = "qsort")
      (Benchlib.Inputs.small_benchmarks ())
  in
  let wam = Benchlib.Runner.run_wam ~keep_trace:false bench in
  let rap = Benchlib.Runner.run_rapwam ~keep_trace:false ~n_pes:32 bench in
  Alcotest.(check bool) "agree at 32 PEs" true
    (Benchlib.Runner.answers_agree wam rap)

let answer_par ~n ~src query var =
  match Rapwam.Sim.solve ~n_workers:n ~src ~query () with
  | Wam.Seq.Success b, _ -> show (List.assoc var b)
  | Wam.Seq.Failure, _ -> Alcotest.failf "parallel %S failed" query

let test_three_arm_middle_failure () =
  (* the middle pushed arm fails; recovery across PE counts *)
  let src =
    "t(R) :- a(_X) & bad(_Y) & c(_Z), R = no.\n\
     t(yes).\n\
     a(1).\nc(3).\nbad(_) :- fail.\n"
  in
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "middle failure %d PEs" n)
        "yes"
        (answer_par ~n ~src "t(R)" "R"))
    [ 1; 2; 4 ]

let test_conditional_cge_in_recursion () =
  (* check evaluated at every level; alternates parallel/sequential *)
  let src =
    "sumt(leaf(V), V).\n\
     sumt(node(L, R), S) :-\n\
    \  (indep(L, R) | sumt(L, SL) & sumt(R, SR)),\n\
    \  S is SL + SR.\n"
  in
  Alcotest.(check string) "tree sum" "10"
    (answer_par ~n:4 ~src
       "sumt(node(node(leaf(1), leaf(2)), node(leaf(3), leaf(4))), S)" "S")

let test_parallel_inside_lifted_disjunct () =
  let src =
    "p(N, R) :- (N > 0 -> q(A) & q(B), R is A + B ; R = 0).\nq(21).\n"
  in
  Alcotest.(check string) "par in ite" "42" (answer_par ~n:2 ~src "p(1, R)" "R");
  Alcotest.(check string) "else branch" "0" (answer_par ~n:2 ~src "p(0, R)" "R")

(* ---------------- cache corners ---------------- *)

let mk_trace refs =
  let buf = Trace.Sink.Buffer_sink.create () in
  let sink = Trace.Sink.buffer buf in
  List.iter
    (fun (pe, op, addr) ->
      Trace.Sink.emit sink
        { Trace.Ref_record.pe; addr; area = Trace.Area.Heap; op })
    refs;
  buf

let test_wtb_no_allocate_single_word () =
  (* update protocol, write miss without allocation: one bus word *)
  let st =
    Cachesim.Multi.simulate ~kind:Cachesim.Protocol.Write_through_broadcast
      ~cache_words:64 ~write_allocate:false ~n_pes:2
      (mk_trace [ (0, Trace.Ref_record.Write, 8) ])
  in
  Alcotest.(check int) "one word" 1 st.Cachesim.Metrics.bus_words

let test_directory_consistency_after_invalidate () =
  (* after an invalidation, the old holder's re-read must miss and the
     sharing state must rebuild correctly *)
  let r = Trace.Ref_record.Read and w = Trace.Ref_record.Write in
  let st =
    Cachesim.Multi.simulate ~kind:Cachesim.Protocol.Write_in_broadcast
      ~cache_words:64 ~write_allocate:true ~n_pes:2
      (mk_trace
         [ (0, r, 8); (1, r, 8); (0, w, 8); (1, r, 8); (0, w, 8); (1, r, 8) ])
  in
  (* PE1 misses after each invalidation: fills = 2 initial + 2 re-reads *)
  Alcotest.(check int) "fills" 4 st.Cachesim.Metrics.fills;
  Alcotest.(check int) "invalidations" 2 st.Cachesim.Metrics.invalidations;
  (* the re-reads must flush PE0's dirty copy *)
  Alcotest.(check int) "flushes" 2 st.Cachesim.Metrics.writebacks

let test_line_granularity () =
  (* two addresses in the same 4-word line: one fill *)
  let r = Trace.Ref_record.Read in
  let st =
    Cachesim.Multi.simulate ~kind:Cachesim.Protocol.Copyback ~cache_words:64
      ~n_pes:1
      (mk_trace [ (0, r, 8); (0, r, 11); (0, r, 12) ])
  in
  (* 8 and 11 share line 2; 12 starts line 3 *)
  Alcotest.(check int) "two fills" 2 st.Cachesim.Metrics.fills

let suite =
  [
    Alcotest.test_case "quoted atoms" `Quick test_quoted_atoms;
    Alcotest.test_case "symbolic atoms" `Quick test_symbolic_atoms;
    Alcotest.test_case "precedence details" `Quick
      test_operator_precedence_details;
    Alcotest.test_case "curly braces" `Quick test_curly_braces;
    Alcotest.test_case "list tails" `Quick test_nested_list_tails;
    Alcotest.test_case "all arith ops" `Quick test_all_arith_ops;
    Alcotest.test_case "arith errors" `Quick test_arith_errors;
    Alcotest.test_case "comparison chain" `Quick test_comparison_chain;
    Alcotest.test_case "standard order" `Quick test_standard_order_details;
    Alcotest.test_case "functor list" `Quick test_functor_construct_list;
    Alcotest.test_case "univ roundtrip" `Quick test_univ_roundtrip;
    Alcotest.test_case "arg bounds" `Quick test_arg_bounds;
    Alcotest.test_case "cut in ite local" `Quick test_cut_in_ite_is_local;
    Alcotest.test_case "nested disjunction" `Quick test_nested_disjunction;
    Alcotest.test_case "naf of conjunction" `Quick test_naf_of_conjunction;
    Alcotest.test_case "deep recursion CPs" `Slow
      test_deep_recursion_with_choice_points;
    Alcotest.test_case "qsort 32 PEs" `Quick test_qsort_32_pes;
    Alcotest.test_case "middle-arm failure" `Quick
      test_three_arm_middle_failure;
    Alcotest.test_case "conditional CGE recursion" `Quick
      test_conditional_cge_in_recursion;
    Alcotest.test_case "parallel in disjunct" `Quick
      test_parallel_inside_lifted_disjunct;
    Alcotest.test_case "WTB no-allocate" `Quick test_wtb_no_allocate_single_word;
    Alcotest.test_case "directory consistency" `Quick
      test_directory_consistency_after_invalidate;
    Alcotest.test_case "line granularity" `Quick test_line_granularity;
  ]
