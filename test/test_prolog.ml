(* Tests for the Prolog front end: lexer, parser, operators, CGE
   normalization, clause database. *)

let parse s = Prolog.Parser.term_of_string s
let show t = Prolog.Pretty.to_string t

let check_parse ?(expect = "") src =
  let t = parse src in
  let expect = if expect = "" then src else expect in
  Alcotest.(check string) src expect (show t)

let test_atoms_and_ints () =
  check_parse "foo";
  check_parse "42";
  check_parse "-7" ~expect:"-7";
  check_parse "'hello world'";
  check_parse "[]"

let test_structs () =
  check_parse "f(a, b, c)";
  check_parse "f(g(X), h(Y, 1))";
  check_parse "'$aux'(X)"

let test_operators () =
  check_parse "1 + 2 * 3";
  Alcotest.(check string)
    "assoc" "1 + 2 + 3" (show (parse "1 + 2 + 3"));
  (match parse "1 + 2 + 3" with
  | Prolog.Term.Struct ("+", [ Prolog.Term.Struct ("+", _); Prolog.Term.Int 3 ])
    ->
    ()
  | t -> Alcotest.failf "yfx grouping wrong: %s" (show t));
  (match parse "a :- b, c" with
  | Prolog.Term.Struct (":-", [ _; Prolog.Term.Struct (",", _) ]) -> ()
  | t -> Alcotest.failf "clause op wrong: %s" (show t));
  (match parse "X is Y - 1" with
  | Prolog.Term.Struct ("is", [ _; Prolog.Term.Struct ("-", _) ]) -> ()
  | t -> Alcotest.failf "is wrong: %s" (show t))

let test_unary_minus () =
  (match parse "X is -1" with
  | Prolog.Term.Struct ("is", [ _; Prolog.Term.Int (-1) ]) -> ()
  | t -> Alcotest.failf "neg literal: %s" (show t));
  match parse "- X" with
  | Prolog.Term.Struct ("-", [ Prolog.Term.Var "X" ]) -> ()
  | t -> Alcotest.failf "unary minus: %s" (show t)

let test_lists () =
  check_parse "[1, 2, 3]";
  check_parse "[H|T]";
  check_parse "[a, b|T]";
  (match parse "[1,2]" with
  | Prolog.Term.Struct
      ( ".",
        [
          Prolog.Term.Int 1;
          Prolog.Term.Struct (".", [ Prolog.Term.Int 2; Prolog.Term.Atom "[]" ]);
        ] ) ->
    ()
  | t -> Alcotest.failf "list repr: %s" (show t));
  Alcotest.(check bool)
    "to_list" true
    (Prolog.Term.to_list (parse "[1,2,3]") = Some [ Prolog.Term.Int 1; Prolog.Term.Int 2; Prolog.Term.Int 3 ])

let test_par_conj () =
  (match parse "a & b & c" with
  | Prolog.Term.Struct ("&", [ Prolog.Term.Atom "a"; Prolog.Term.Struct ("&", _) ]) -> ()
  | t -> Alcotest.failf "& xfy: %s" (show t));
  (* & binds tighter than ',' *)
  match parse "a, b & c" with
  | Prolog.Term.Struct (",", [ Prolog.Term.Atom "a"; Prolog.Term.Struct ("&", _) ])
    ->
    ()
  | t -> Alcotest.failf "& vs ,: %s" (show t)

let test_cge_syntax () =
  let t = parse "(ground(Y), indep(X, Z) | g(X, Y) & h(Y, Z))" in
  match Prolog.Cge.items_of_term t with
  | [ Prolog.Cge.Par { checks; arms } ] ->
    Alcotest.(check int) "checks" 2 (List.length checks);
    Alcotest.(check int) "arms" 2 (List.length arms)
  | _ -> Alcotest.fail "expected one Par item"

let test_cge_unconditional () =
  match Prolog.Cge.items_of_term (parse "p(X), q(X) & r(Y), s") with
  | [ Prolog.Cge.Lit _; Prolog.Cge.Par { checks = []; arms }; Prolog.Cge.Lit _ ]
    ->
    Alcotest.(check int) "arms" 2 (List.length arms)
  | items ->
    Alcotest.failf "wrong items: %d" (List.length items)

let test_anonymous_vars_distinct () =
  match parse "f(_, _)" with
  | Prolog.Term.Struct ("f", [ Prolog.Term.Var v1; Prolog.Term.Var v2 ]) ->
    Alcotest.(check bool) "distinct" true (v1 <> v2)
  | t -> Alcotest.failf "bad: %s" (show t)

(* An anonymous variable gets a fresh _G<n> name that no named
   variable of the same read spells, whichever comes first. *)
let test_anonymous_never_aliases () =
  let two_vars src =
    match parse src with
    | Prolog.Term.Struct ("p", [ Prolog.Term.Var v1; Prolog.Term.Var v2 ]) ->
      Alcotest.(check bool) (src ^ ": two distinct variables") true (v1 <> v2)
    | t -> Alcotest.failf "%s: bad parse %s" src (show t)
  in
  two_vars "p(_G1, _)";
  two_vars "p(_, _G1)";
  (* a read with no clash names its anonymous variables as before *)
  Alcotest.(check string) "no clash, names unchanged" "f(_G1, _G2, _G7)"
    (show (parse "f(_, _, _G7)"));
  (* within a file the names avoid the named variables of each clause *)
  match Prolog.Parser.clauses_of_string "p(_G2, _) :- q(_, _G2).\nr(_)." with
  | [ Prolog.Term.Struct (":-", [ head; body ]); r ] ->
    Alcotest.(check (list string)) "clause variables" [ "_G2"; "_G1"; "_G3" ]
      (Prolog.Term.vars (Prolog.Term.Struct ("c", [ head; body ])));
    Alcotest.(check string) "next clause" "r(_G4)" (show r)
  | cs -> Alcotest.failf "bad clauses: %d" (List.length cs)

(* Every malformed text raises the parser's one exception, the
   lexical ones included; an integer literal past max_int is one. *)
let test_lexical_errors_are_syntax_errors () =
  let rejects src msg =
    match parse src with
    | exception Prolog.Parser.Error (m, _) ->
      Alcotest.(check string) (src ^ ": message") msg m
    | t -> Alcotest.failf "%S parsed as %s" src (show t)
  in
  rejects {|p(X) :- X = "a".|} {|unexpected character '"'|};
  rejects "p(X) :- X = 99999999999999999999." "integer literal out of range";
  rejects "4611686018427387904" "integer literal out of range";
  rejects "p('a)" "unterminated quoted atom";
  rejects {|p('a\|} "unterminated escape";
  rejects "p /* a" "unterminated block comment";
  Alcotest.(check string) "max_int is a literal" (string_of_int max_int)
    (show (parse (string_of_int max_int)));
  match Prolog.Parser.clauses_of_string "p(1).\nq(99999999999999999999)." with
  | exception Prolog.Parser.Error (m, pos) ->
    Alcotest.(check string) "clauses: message" "integer literal out of range" m;
    Alcotest.(check int) "positioned at the literal" 8 pos
  | _ -> Alcotest.fail "an overflowing clause parsed"

(* Each of these printed text that did not read back as the term. *)
let test_printer_round_trips () =
  let prints t expect =
    Alcotest.(check string) expect expect (show t);
    Alcotest.(check bool) (expect ^ " reads back") true
      (Prolog.Term.equal (parse expect) t)
  in
  let open Prolog.Term in
  prints (Struct ("f", [ Atom "it's" ])) {|f('it''s')|};
  prints (Struct ("f", [ Atom {|a\b|} ])) {|f('a\\b')|};
  prints (Struct ("f", [ Atom "a\nb" ])) {|f('a\nb')|};
  prints (Struct ("f", [ Atom "," ])) {|f(',')|};
  prints (Struct ("f", [ Atom "|" ])) {|f('|')|};
  prints (Struct ("-", [ Int 1 ])) "-(1)";
  prints (Struct ("+", [ Int 1 ])) "+(1)";
  prints (Struct ("-", [ Struct ("^", [ Int 1; Int 2 ]) ])) "-(1 ^ 2)";
  prints (Struct ("-", [ Int (-1) ])) "- -1";
  prints (Struct ("{}", [ Atom "a" ])) "{a}";
  prints (Struct ("'", [ Atom "a" ])) {|''''(a)|};
  prints (Struct ("[]", [ Atom "a" ])) {|'[]'(a)|};
  prints (Struct ("=", [ Atom "-"; Int 1 ])) "(-) = 1";
  prints (Struct ("**", [ Atom "a"; Int (-1) ])) "a ** (-1)";
  prints (Atom ".") {|'.'|};
  prints (Struct ("f", [ Atom "." ])) "f(.)";
  (* terms that already read back print as before *)
  prints (Struct ("=", [ Var "X"; Atom "-" ])) "X = -";
  prints (Struct ("-", [ Var "X" ])) "- X";
  prints (Struct ("f", [ Atom "hello world" ])) {|f('hello world')|}

(* Random terms over the spellings the printer must quote, bracket or
   write canonically. *)
let roundtrip_gen =
  let open QCheck.Gen in
  let open Prolog.Term in
  let names =
    [ "'"; {|\|}; "\n"; ","; "|"; "{}"; "[]"; "!"; ";"; "."; ""; "/*"; "a b";
      "it's"; "-"; "+"; {|\+|}; "="; ":-"; "mode"; "is"; "mod"; "^"; "**";
      "->"; "&"; "=.."; "a"; "f"; "foo" ]
  in
  let infix =
    [ ","; "|"; ";"; "-"; "+"; "="; ":-"; "is"; "mod"; "^"; "**"; "->"; "&" ]
  in
  let prefix = [ "-"; "+"; {|\+|}; ":-"; "mode"; {|\|} ] in
  let leaf =
    frequency
      [
        (4, map (fun a -> Atom a) (oneofl names));
        (2, map (fun v -> Var v) (oneofl [ "X"; "Y"; "_Z" ]));
        (3, map (fun n -> Int n) (int_range (-20) 20));
      ]
  in
  sized_size (int_bound 6)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           let sub = self (n / 2) in
           frequency
             [
               (2, leaf);
               ( 2,
                 map2
                   (fun f args -> Struct (f, args))
                   (oneofl names)
                   (list_size (int_range 1 3) sub) );
               (3, map3 (fun f a b -> Struct (f, [ a; b ])) (oneofl infix) sub sub);
               (2, map2 (fun f a -> Struct (f, [ a ])) (oneofl prefix) sub);
               ( 1,
                 map2
                   (fun f k -> Struct (f, [ Int k ]))
                   (oneofl [ "-"; "+" ])
                   (int_range (-5) 5) );
               (1, map2 cons sub sub);
               (1, map (fun a -> Struct ("{}", [ a ])) sub);
             ])

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"pretty: printed terms parse back to themselves"
    ~count:2000
    (QCheck.make ~print:show roundtrip_gen)
    (fun t -> Prolog.Term.equal (parse (show t)) t)

let test_comments () =
  let cs =
    Prolog.Parser.clauses_of_string
      "% line comment\nf(a). /* block\ncomment */ g(b)."
  in
  Alcotest.(check int) "two clauses" 2 (List.length cs)

let test_clauses_of_string () =
  let cs = Prolog.Parser.clauses_of_string "f(a). f(b). g(X) :- f(X)." in
  Alcotest.(check int) "three" 3 (List.length cs)

let test_database_load () =
  let db =
    Prolog.Database.of_string "f(a). f(b). g(X) :- f(X), f(X). :- f(a)."
  in
  Alcotest.(check int) "preds" 2 (Prolog.Database.predicate_count db);
  Alcotest.(check int) "clauses" 3 (Prolog.Database.clause_count db);
  Alcotest.(check int) "directives" 1
    (List.length (Prolog.Database.directives db));
  Alcotest.(check int) "f/1 clauses" 2
    (List.length (Prolog.Database.clauses db ("f", 1)))

let test_database_lifts_disjunction () =
  let db = Prolog.Database.of_string "f(X) :- (g(X) ; h(X))." in
  (* one aux predicate with two clauses was created *)
  Alcotest.(check int) "preds" 2 (Prolog.Database.predicate_count db);
  Alcotest.(check int) "clauses" 3 (Prolog.Database.clause_count db)

let test_database_lifts_ite () =
  let db = Prolog.Database.of_string "f(X) :- (X > 1 -> g(X) ; h(X))." in
  Alcotest.(check int) "clauses" 3 (Prolog.Database.clause_count db)

let test_database_lifts_naf () =
  let db = Prolog.Database.of_string "f(X) :- \\+ g(X)." in
  Alcotest.(check int) "clauses" 3 (Prolog.Database.clause_count db)

let test_database_lifts_compound_arm () =
  let db = Prolog.Database.of_string "f(X, Y) :- (g(X), g2(X)) & h(Y)." in
  (* the conjunction arm becomes an auxiliary predicate *)
  Alcotest.(check int) "preds" 2 (Prolog.Database.predicate_count db);
  Alcotest.(check int) "parcalls" 1 (Prolog.Database.parallel_call_count db)

let test_term_utils () =
  let t = parse "f(X, g(Y, X), Z)" in
  Alcotest.(check (list string)) "vars" [ "X"; "Y"; "Z" ] (Prolog.Term.vars t);
  Alcotest.(check bool) "ground" false (Prolog.Term.is_ground t);
  Alcotest.(check bool) "ground2" true (Prolog.Term.is_ground (parse "f(a, 1)"));
  Alcotest.(check int) "size" 6 (Prolog.Term.size t);
  Alcotest.(check int) "depth" 3 (Prolog.Term.depth t)

let test_conj_roundtrip () =
  let t = parse "a, b, c" in
  Alcotest.(check int) "conjuncts" 3 (List.length (Prolog.Term.conjuncts t));
  let back = Prolog.Term.conj (Prolog.Term.conjuncts t) in
  Alcotest.(check bool) "equal" true (Prolog.Term.equal t back)

let test_parse_errors () =
  let fails s =
    match parse s with
    | exception (Prolog.Parser.Error _ | Prolog.Lexer.Error _) -> ()
    | t -> Alcotest.failf "expected parse error for %S, got %s" s (show t)
  in
  fails "f(a";
  fails "[1, 2";
  fails ")";
  fails "f(a) g(b)"

let test_prelude_loads_and_runs () =
  let src = Prolog.Prelude.source in
  let answer query var =
    match Wam.Seq.solve ~src ~query () with
    | Wam.Seq.Success b, _ -> Prolog.Pretty.to_string (List.assoc var b)
    | Wam.Seq.Failure, _ -> Alcotest.failf "prelude query %S failed" query
  in
  Alcotest.(check string) "append" "[1, 2, 3]"
    (answer "append([1], [2,3], L)" "L");
  Alcotest.(check string) "length" "4" (answer "length([a,b,c,d], N)" "N");
  Alcotest.(check string) "reverse" "[3, 2, 1]"
    (answer "reverse([1,2,3], R)" "R");
  Alcotest.(check string) "nth1" "b" (answer "nth1(2, [a,b,c], X)" "X");
  Alcotest.(check string) "sum" "10" (answer "sum_list([1,2,3,4], S)" "S");
  Alcotest.(check string) "max" "9" (answer "max_list([3,9,1], M)" "M");
  Alcotest.(check string) "msort" "[1, 2, 3, 5]"
    (answer "msort([3,1,5,2], S)" "S");
  Alcotest.(check string) "between first" "2"
    (answer "between(2, 5, X)" "X");
  Alcotest.(check string) "numlist" "[4, 5, 6]" (answer "numlist(4, 6, L)" "L");
  (match Wam.Seq.solve ~src ~query:"member(q, [a,b])" () with
  | Wam.Seq.Failure, _ -> ()
  | Wam.Seq.Success _, _ -> Alcotest.fail "member should fail")

let suite =
  [
    Alcotest.test_case "atoms and ints" `Quick test_atoms_and_ints;
    Alcotest.test_case "structures" `Quick test_structs;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "unary minus" `Quick test_unary_minus;
    Alcotest.test_case "lists" `Quick test_lists;
    Alcotest.test_case "parallel conj" `Quick test_par_conj;
    Alcotest.test_case "CGE syntax" `Quick test_cge_syntax;
    Alcotest.test_case "CGE unconditional" `Quick test_cge_unconditional;
    Alcotest.test_case "anonymous vars" `Quick test_anonymous_vars_distinct;
    Alcotest.test_case "anonymous vars never alias named ones" `Quick
      test_anonymous_never_aliases;
    Alcotest.test_case "lexical errors are syntax errors" `Quick
      test_lexical_errors_are_syntax_errors;
    Alcotest.test_case "printer round-trips" `Quick test_printer_round_trips;
    QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "clauses_of_string" `Quick test_clauses_of_string;
    Alcotest.test_case "database load" `Quick test_database_load;
    Alcotest.test_case "lift disjunction" `Quick test_database_lifts_disjunction;
    Alcotest.test_case "lift if-then-else" `Quick test_database_lifts_ite;
    Alcotest.test_case "lift naf" `Quick test_database_lifts_naf;
    Alcotest.test_case "lift compound arm" `Quick test_database_lifts_compound_arm;
    Alcotest.test_case "term utils" `Quick test_term_utils;
    Alcotest.test_case "conj roundtrip" `Quick test_conj_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "prelude" `Quick test_prelude_loads_and_runs;
  ]
