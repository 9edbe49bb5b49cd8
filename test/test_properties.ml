(* Property-based tests (qcheck) over the core data structures and
   machines: parser/printer roundtrips, unification against a reference
   implementation, parallel-vs-sequential agreement, encode/decode
   roundtrips, LRU behaviour against a model, and packing. *)

open QCheck

(* ---------------- generators ---------------- *)

let atom_gen = Gen.oneofl [ "a"; "b"; "c"; "foo"; "bar"; "nil" ]
let functor_gen = Gen.oneofl [ "f"; "g"; "h"; "pair"; "tree" ]
let var_gen = Gen.oneofl [ "X"; "Y"; "Z"; "W" ]

let ground_term_gen =
  Gen.sized

  @@ Gen.fix (fun self n ->
         if n = 0 then
           Gen.oneof
             [
               Gen.map (fun i -> Prolog.Term.Int i) Gen.small_int;
               Gen.map (fun a -> Prolog.Term.Atom a) atom_gen;
             ]
         else
           Gen.frequency
             [
               (1, Gen.map (fun a -> Prolog.Term.Atom a) atom_gen);
               ( 3,
                 Gen.map2
                   (fun f args -> Prolog.Term.Struct (f, args))
                   functor_gen
                   (Gen.list_size (Gen.int_range 1 3) (self (n / 2))) );
               ( 1,
                 Gen.map2
                   (fun h t -> Prolog.Term.cons h t)
                   (self (n / 2))
                   (Gen.map (fun l -> Prolog.Term.list_of l)
                      (Gen.list_size (Gen.int_range 0 2) (self (n / 3)))) );
             ])

let term_gen =
  Gen.sized
  @@ Gen.fix (fun self n ->
         if n = 0 then
           Gen.oneof
             [
               Gen.map (fun i -> Prolog.Term.Int i) Gen.small_int;
               Gen.map (fun a -> Prolog.Term.Atom a) atom_gen;
               Gen.map (fun v -> Prolog.Term.Var v) var_gen;
             ]
         else
           Gen.frequency
             [
               (1, Gen.map (fun v -> Prolog.Term.Var v) var_gen);
               ( 3,
                 Gen.map2
                   (fun f args -> Prolog.Term.Struct (f, args))
                   functor_gen
                   (Gen.list_size (Gen.int_range 1 3) (self (n / 2))) );
             ])

let term_arb = make ~print:Prolog.Pretty.to_string term_gen
let ground_term_arb = make ~print:Prolog.Pretty.to_string ground_term_gen

(* ---------------- parser/printer roundtrip ---------------- *)

let prop_parse_print_roundtrip =
  Test.make ~name:"parse(print(t)) = t" ~count:200 term_arb (fun t ->
      let s = Prolog.Pretty.to_string t in
      match Prolog.Parser.term_of_string s with
      | t' -> Prolog.Term.equal t t'
      | exception _ -> false)

(* ---------------- reference unification ---------------- *)

(* A straightforward substitution-based unifier over source terms. *)
let rec walk subst t =
  match t with
  | Prolog.Term.Var v -> (
    match List.assoc_opt v subst with Some t' -> walk subst t' | None -> t)
  | Prolog.Term.Atom _ | Prolog.Term.Int _ | Prolog.Term.Struct _ -> t

let rec occurs subst v t =
  match walk subst t with
  | Prolog.Term.Var v' -> v = v'
  | Prolog.Term.Struct (_, args) -> List.exists (occurs subst v) args
  | Prolog.Term.Atom _ | Prolog.Term.Int _ -> false

exception Cyclic
(* The WAM unifies without an occurs check (rational trees); the
   reference rejects those cases and the property skips them. *)

let rec ref_unify subst t1 t2 =
  let t1 = walk subst t1 in
  let t2 = walk subst t2 in
  match (t1, t2) with
  | Prolog.Term.Var v1, Prolog.Term.Var v2 when v1 = v2 -> Some subst
  | Prolog.Term.Var v, t | t, Prolog.Term.Var v ->
    if occurs subst v t then raise Cyclic else Some ((v, t) :: subst)
  | Prolog.Term.Atom a, Prolog.Term.Atom b -> if a = b then Some subst else None
  | Prolog.Term.Int a, Prolog.Term.Int b -> if a = b then Some subst else None
  | Prolog.Term.Struct (f, xs), Prolog.Term.Struct (g, ys) ->
    if f = g && List.length xs = List.length ys then
      List.fold_left2
        (fun acc x y ->
          match acc with Some s -> ref_unify s x y | None -> None)
        (Some subst) xs ys
    else None
  | (Prolog.Term.Atom _ | Prolog.Term.Int _ | Prolog.Term.Struct _), _ -> None

let prop_unify_matches_reference =
  Test.make ~name:"machine =/2 agrees with reference unifier" ~count:150
    (pair term_arb term_arb) (fun (t1, t2) ->
      match ref_unify [] t1 t2 with
      | exception Cyclic -> true (* out of the reference's scope *)
      | reference ->
        let expected = reference <> None in
        let query =
          Printf.sprintf "Left = %s, Right = %s, Left = Right"
            (Prolog.Pretty.to_string t1) (Prolog.Pretty.to_string t2)
        in
        let got =
          match Wam.Seq.solve ~src:"" ~query () with
          | Wam.Seq.Success _, _ -> true
          | Wam.Seq.Failure, _ -> false
        in
        got = expected)

(* ---------------- encode/decode roundtrip ---------------- *)

let prop_encode_decode =
  Test.make ~name:"heap encode/decode roundtrip" ~count:150 ground_term_arb
    (fun t ->
      let prog = Wam.Program.prepare ~src:"" ~query:"true" () in
      let m =
        Wam.Machine.create ~n_workers:1 ~code:prog.Wam.Program.code
          ~symbols:prog.Wam.Program.symbols ()
      in
      let w = Wam.Machine.worker m 0 in
      let cell = Wam.Exec.encode m w (Hashtbl.create 8) t in
      Prolog.Term.equal t (Wam.Exec.decode m w cell))

(* ---------------- qsort against List.sort ---------------- *)

let prop_parallel_qsort_sorts =
  Test.make ~name:"parallel qsort agrees with List.sort" ~count:25
    (pair (list_of_size (Gen.int_range 0 40) (int_bound 500)) (int_range 1 6))
    (fun (l, pes) ->
      let query =
        Printf.sprintf "qsort([%s], S)"
          (String.concat ", " (List.map string_of_int l))
      in
      let result, _ =
        Rapwam.Sim.solve ~n_workers:pes ~src:Benchlib.Programs.qsort ~query ()
      in
      match result with
      | Wam.Seq.Failure -> false
      | Wam.Seq.Success bindings -> (
        match Prolog.Term.to_list (List.assoc "S" bindings) with
        | Some elems ->
          let ints =
            List.map
              (function Prolog.Term.Int n -> n | _ -> min_int)
              elems
          in
          ints = List.sort compare l
        | None -> false))

(* ---------------- parallel = sequential ---------------- *)

let prop_parallel_matches_sequential =
  Test.make ~name:"RAP-WAM answer = WAM answer (fib)" ~count:20
    (pair (int_range 0 14) (int_range 1 6)) (fun (n, pes) ->
      let src =
        "fib(0, 1). fib(1, 1).\n\
         fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2,\n\
        \  fib(N1, F1) & fib(N2, F2), F is F1 + F2.\n"
      in
      let query = Printf.sprintf "fib(%d, F)" n in
      let seq, _ = Wam.Seq.solve ~src ~query () in
      let par, _ = Rapwam.Sim.solve ~n_workers:pes ~src ~query () in
      match (seq, par) with
      | Wam.Seq.Success b1, Wam.Seq.Success b2 ->
        Prolog.Term.equal (List.assoc "F" b1) (List.assoc "F" b2)
      | Wam.Seq.Failure, Wam.Seq.Failure -> true
      | (Wam.Seq.Success _ | Wam.Seq.Failure), _ -> false)

(* ---------------- LRU cache against a model ---------------- *)

let prop_lru_matches_model =
  Test.make ~name:"LRU cache behaves like the list model" ~count:200
    (pair (int_range 1 6)
       (list_of_size (Gen.int_range 1 80) (int_bound 12)))
    (fun (capacity, accesses) ->
      let cache = Cachesim.Cache.create ~lines:capacity in
      let model = ref [] in
      List.for_all
        (fun line ->
          let model_hit = List.mem line !model in
          (model :=
             if model_hit then
               line :: List.filter (fun l -> l <> line) !model
             else begin
               let added = line :: !model in
               if List.length added > capacity then
                 List.filteri (fun i _ -> i < capacity) added
               else added
             end);
          let cache_hit =
            match Cachesim.Cache.find cache line with
            | -1 ->
              ignore (Cachesim.Cache.insert cache line ~dirty:false);
              false
            | slot ->
              Cachesim.Cache.touch cache slot;
              true
          in
          cache_hit = model_hit)
        accesses)

(* ---------------- packing ---------------- *)

let prop_pack_roundtrip =
  Test.make ~name:"ref-record packing roundtrip" ~count:300
    (quad (int_bound 255) (int_bound ((1 lsl 30) - 1))
       (int_bound (Trace.Area.count - 1)) bool)
    (fun (pe, addr, area_i, write) ->
      let r =
        {
          Trace.Ref_record.pe;
          addr;
          area = Trace.Area.of_int area_i;
          op = (if write then Trace.Ref_record.Write else Trace.Ref_record.Read);
        }
      in
      Trace.Ref_record.unpack (Trace.Ref_record.pack r) = r)

(* ---------------- traffic-ratio sanity over random traces -------- *)

let prop_cache_counts_consistent =
  Test.make ~name:"cache metrics internally consistent" ~count:60
    (pair
       (list_of_size (Gen.int_range 1 300)
          (triple (int_bound 3) (int_bound 200) bool))
       (int_range 0 4))
    (fun (refs, kind_i) ->
      let kind = List.nth Cachesim.Protocol.all_kinds kind_i in
      let buf = Trace.Sink.Buffer_sink.create () in
      let sink = Trace.Sink.buffer buf in
      List.iter
        (fun (pe, word, write) ->
          Trace.Sink.emit sink
            {
              Trace.Ref_record.pe;
              addr = Wam.Layout.heap_base pe + word;
              area = Trace.Area.Heap;
              op =
                (if write then Trace.Ref_record.Write
                 else Trace.Ref_record.Read);
            })
        refs;
      let st =
        Cachesim.Multi.simulate ~kind ~cache_words:64 ~n_pes:4 buf
      in
      Cachesim.Metrics.refs st = List.length refs
      && Cachesim.Metrics.misses st <= Cachesim.Metrics.refs st
      && st.Cachesim.Metrics.bus_words
         = (4 * (st.Cachesim.Metrics.fills + st.Cachesim.Metrics.writebacks))
           + st.Cachesim.Metrics.wt_words + st.Cachesim.Metrics.invalidations
           + st.Cachesim.Metrics.updates)

(* ---------------- arithmetic evaluation ---------------- *)

type aexp = Lit of int | Add of aexp * aexp | Sub of aexp * aexp
          | Mul of aexp * aexp | Div of aexp * aexp | Neg of aexp

let rec aexp_to_prolog = function
  | Lit n -> string_of_int n
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (aexp_to_prolog a) (aexp_to_prolog b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (aexp_to_prolog a) (aexp_to_prolog b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (aexp_to_prolog a) (aexp_to_prolog b)
  | Div (a, b) -> Printf.sprintf "(%s // %s)" (aexp_to_prolog a) (aexp_to_prolog b)
  | Neg a -> Printf.sprintf "(- %s)" (aexp_to_prolog a)

exception Div0

let rec aexp_eval = function
  | Lit n -> n
  | Add (a, b) -> aexp_eval a + aexp_eval b
  | Sub (a, b) -> aexp_eval a - aexp_eval b
  | Mul (a, b) -> aexp_eval a * aexp_eval b
  | Div (a, b) ->
    let d = aexp_eval b in
    if d = 0 then raise Div0 else aexp_eval a / d
  | Neg a -> -aexp_eval a

let aexp_gen =
  Gen.sized
  @@ Gen.fix (fun self n ->
         if n = 0 then Gen.map (fun i -> Lit (i - 50)) (Gen.int_bound 100)
         else
           Gen.oneof
             [
               Gen.map (fun i -> Lit (i - 50)) (Gen.int_bound 100);
               Gen.map2 (fun a b -> Add (a, b)) (self (n / 2)) (self (n / 2));
               Gen.map2 (fun a b -> Sub (a, b)) (self (n / 2)) (self (n / 2));
               Gen.map2 (fun a b -> Mul (a, b)) (self (n / 2)) (self (n / 2));
               Gen.map2 (fun a b -> Div (a, b)) (self (n / 2)) (self (n / 2));
               Gen.map (fun a -> Neg a) (self (n - 1));
             ])

let prop_arith_matches_ocaml =
  Test.make ~name:"is/2 agrees with OCaml evaluation" ~count:150
    (make ~print:aexp_to_prolog aexp_gen) (fun e ->
      match aexp_eval e with
      | exception Div0 -> begin
        (* the machine must fail with a runtime error, not crash *)
        match
          Wam.Seq.solve ~src:""
            ~query:(Printf.sprintf "X is %s" (aexp_to_prolog e))
            ()
        with
        | exception Wam.Machine.Runtime_error _ -> true
        | _ -> false
      end
      | expected -> begin
        match
          Wam.Seq.solve ~src:""
            ~query:(Printf.sprintf "X is %s" (aexp_to_prolog e))
            ()
        with
        | Wam.Seq.Success b, _ ->
          List.assoc "X" b = Prolog.Term.Int expected
        | Wam.Seq.Failure, _ -> false
      end)

(* ---------------- annotated = plain answers ---------------- *)

let prop_annotator_preserves_answers =
  Test.make ~name:"auto-annotated program = plain program (hanoi)" ~count:15
    (pair (int_range 0 9) (int_range 1 6)) (fun (n, pes) ->
      let src =
        ":- mode hanoi(+, ?, ?, ?, -).\n\
         hanoi(0, _, _, _, 0).\n\
         hanoi(N, A, B, C, M) :- N > 0, N1 is N - 1,\n\
        \  hanoi(N1, A, C, B, M1), hanoi(N1, C, B, A, M2),\n\
        \  M is M1 + M2 + 1.\n"
      in
      let query = Printf.sprintf "hanoi(%d, a, b, c, M)" n in
      let seq, _ = Wam.Seq.solve ~src ~query () in
      let prog =
        Wam.Program.of_database ~parallel:true
          (Prolog.Annotate.database (Prolog.Database.of_string src))
          ~query ()
      in
      let sim = Rapwam.Sim.create ~n_workers:pes prog in
      let par = Rapwam.Sim.run_prepared sim prog in
      match (seq, par) with
      | Wam.Seq.Success b1, Wam.Seq.Success b2 ->
        Prolog.Term.equal (List.assoc "M" b1) (List.assoc "M" b2)
      | Wam.Seq.Failure, Wam.Seq.Failure -> true
      | (Wam.Seq.Success _ | Wam.Seq.Failure), _ -> false)

(* ---------------- failure-stress: parcalls that fail mid-tree ----- *)

let failure_stress_src k =
  Printf.sprintf
    "p(N, R) :- N =< 0, !, R = 1.\n\
     p(N, R) :- ok(N), N1 is N - 1, N2 is N - 2,\n\
    \  p(N1, R1) & p(N2, R2), R is R1 + R2 + 1.\n\
     p(N, R) :- N1 is N - 1, p(N1, R).\n\
     ok(N) :- N mod %d =\\= 0.\n"
    k

let prop_failing_parcalls_match_sequential =
  Test.make
    ~name:"trees with failing parcalls: parallel = sequential" ~count:25
    (triple (int_range 3 12) (int_range 2 5) (int_range 1 6))
    (fun (n, k, pes) ->
      let src = failure_stress_src k in
      let query = Printf.sprintf "p(%d, R)" n in
      let seq, _ = Wam.Seq.solve ~src ~query () in
      let par, _ = Rapwam.Sim.solve ~n_workers:pes ~src ~query () in
      match (seq, par) with
      | Wam.Seq.Success b1, Wam.Seq.Success b2 ->
        Prolog.Term.equal (List.assoc "R" b1) (List.assoc "R" b2)
      | Wam.Seq.Failure, Wam.Seq.Failure -> true
      | (Wam.Seq.Success _ | Wam.Seq.Failure), _ -> false)

(* ---------------- z-score property ---------------- *)

let prop_zscores_center =
  Test.make ~name:"z-scores of a population average to 0" ~count:100
    (list_of_size (Gen.int_range 2 20) (float_bound_exclusive 100.0))
    (fun population ->
      let sigma = Stats.Fit.stddev population in
      QCheck.assume (sigma > 1e-6);
      let zs = List.map (Stats.Fit.z_score ~population) population in
      abs_float (Stats.Fit.mean zs) < 1e-6)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_parse_print_roundtrip;
      prop_unify_matches_reference;
      prop_encode_decode;
      prop_parallel_qsort_sorts;
      prop_parallel_matches_sequential;
      prop_lru_matches_model;
      prop_pack_roundtrip;
      prop_cache_counts_consistent;
      prop_arith_matches_ocaml;
      prop_annotator_preserves_answers;
      prop_failing_parcalls_match_sequential;
      prop_zscores_center;
    ]
