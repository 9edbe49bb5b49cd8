(* The query server: admission lanes, memo consistency (served answers
   always equal a direct engine run), deterministic zipfian traffic,
   and the harness invariants end to end. *)

let qsort_query = "qsort([3,1,4,1,5,9,2,6], S)"

(* a constant-cost fact rides along so admission has a Small lane *)
let src = Benchlib.Programs.qsort ^ "\nhello(world).\n"

let request i q = { Server.Serve.rq_id = i; rq_query = q }

let answers_text answers =
  String.concat " ; " (List.map Memo.Canon.answer_text answers)

(* A supervised server over [src]: every batch is served this way. *)
let sup ?policy ?faults ?memo ?(workers = 2) ?(src = src) () =
  Server.Supervise.create ?policy
    (Server.Serve.create (Server.Serve.config ?memo ?faults ~workers ~src ()))

(* The direct engine's answers to a query that must not end in an
   error. *)
let direct_answers server query =
  match Server.Serve.run_direct server query with
  | Ok answers -> answers
  | Error msg -> Alcotest.failf "%s: %s" query msg

let run_direct t query = direct_answers (Server.Supervise.server t) query
let served (r : Server.Supervise.response) = r.Server.Supervise.sv

(* ---------------- serving & memoing ---------------- *)

let test_serve_matches_direct () =
  let memo = Memo.Table.create ~capacity_words:0 () in
  let t = sup ~memo () in
  let direct = run_direct t qsort_query in
  Alcotest.(check bool) "direct run found an answer" true (direct <> []);
  let batch = List.init 5 (fun i -> request i qsort_query) in
  let responses = List.map served (Server.Supervise.serve t batch) in
  Alcotest.(check int) "all served" 5 (List.length responses);
  List.iter
    (fun (r : Server.Serve.response) ->
      Alcotest.(check (option string)) "no error" None r.rs_error;
      Alcotest.(check string)
        (Printf.sprintf "request %d matches direct" r.rs_id)
        (answers_text direct)
        (answers_text r.rs_answers))
    responses;
  (* identical queries in one batch: at most one execution per worker
     domain can slip past the double-checked lookup; the rest are
     (second-chance) memo hits *)
  let s = Server.Supervise.stats t in
  let executions = s.Server.Supervise.inline_ + s.Server.Supervise.pooled in
  Alcotest.(check int) "served" 5 s.Server.Supervise.served;
  Alcotest.(check bool) "executions bounded by workers" true
    (executions >= 1 && executions <= 2);
  Alcotest.(check int) "every lane accounted" 5
    (executions + s.Server.Supervise.hits);
  Alcotest.(check bool) "most requests were hits" true
    (s.Server.Supervise.hits >= 3);
  (* a second batch hits at admission *)
  (match Server.Supervise.serve t [ request 10 qsort_query ] with
  | [ r ] ->
    Alcotest.(check bool) "hit lane" true
      ((served r).rs_lane = Server.Serve.Hit)
  | _ -> Alcotest.fail "expected one response");
  Alcotest.(check int) "admission hit counted"
    (s.Server.Supervise.hits + 1)
    (Server.Supervise.stats t).Server.Supervise.hits

let test_memo_off () =
  let t = sup () in
  let direct = run_direct t qsort_query in
  let batch = List.init 4 (fun i -> request i qsort_query) in
  List.iter
    (fun r ->
      Alcotest.(check string) "matches direct without a table"
        (answers_text direct)
        (answers_text (served r).rs_answers))
    (Server.Supervise.serve t batch);
  let s = Server.Supervise.stats t in
  Alcotest.(check int) "no hits without a table" 0 s.Server.Supervise.hits;
  Alcotest.(check int) "every request executed" 4
    (s.Server.Supervise.inline_ + s.Server.Supervise.pooled)

let test_admission_lanes () =
  let t = sup () in
  match
    List.map served
      (Server.Supervise.serve t [ request 0 "hello(X)"; request 1 qsort_query ])
  with
  | [ hello; qsort ] ->
    Alcotest.(check bool) "constant goal runs inline" true
      (hello.Server.Serve.rs_lane = Server.Serve.Inline);
    Alcotest.(check bool) "recursive goal is pooled" true
      (qsort.Server.Serve.rs_lane = Server.Serve.Pooled);
    (match hello.Server.Serve.rs_answers with
    | [ [ ("X", Prolog.Term.Atom "world") ] ] -> ()
    | _ -> Alcotest.fail "hello(X) should bind X = world")
  | _ -> Alcotest.fail "expected two responses"

(* A query that does not parse, or whose integer literal does not fit
   a cell, fails its own request; the next request is answered. *)
let test_bad_query_is_an_error () =
  List.iter
    (fun bad ->
      let t = sup () in
      match Server.Supervise.serve t [ request 0 bad; request 1 qsort_query ] with
      | [ r; good ] ->
        Alcotest.(check bool) (bad ^ ": error reported") true
          ((served r).Server.Serve.rs_error <> None);
        Alcotest.(check (option string)) (bad ^ ": next request answered") None
          (served good).Server.Serve.rs_error;
        Alcotest.(check int) (bad ^ ": errors counted") 1
          (Server.Supervise.stats t).Server.Supervise.errors
      | _ -> Alcotest.fail "expected two responses")
    [ ")("; "qsort([576460752303423488], S)" ]

(* A lexical error in one request is that request's syntax error: the
   rest of its batch is answered. *)
let test_lexical_error_is_a_syntax_error () =
  let memo = Memo.Table.create ~capacity_words:0 () in
  let t = sup ~memo ~workers:1 () in
  let direct = answers_text (run_direct t qsort_query) in
  List.iter
    (fun bad ->
      match
        List.map served
          (Server.Supervise.serve t
             [ request 0 qsort_query; request 1 bad; request 2 qsort_query ])
      with
      | [ good1; r; good2 ] ->
        (match r.Server.Serve.rs_error with
        | Some e when String.starts_with ~prefix:"syntax error" e -> ()
        | Some e -> Alcotest.failf "%s: error %S is not a syntax error" bad e
        | None -> Alcotest.failf "%s: no error reported" bad);
        List.iter
          (fun (g : Server.Serve.response) ->
            Alcotest.(check (option string)) (bad ^ ": good request") None
              g.rs_error;
            Alcotest.(check string) (bad ^ ": good answer") direct
              (answers_text g.rs_answers))
          [ good1; good2 ]
      | rs -> Alcotest.failf "%s: %d responses for 3 requests" bad (List.length rs))
    [ {|qsort(["a"], S)|}; "qsort(['abc], S)"; "qsort([99999999999999999999], S)" ]

(* A cyclic answer, or a unification of two cyclic terms, fails its
   own request; the next request of the same batch is still answered. *)
let test_cyclic_answer_is_an_error () =
  let src = "p(X) :- X = f(X).\nq :- X = f(X), Y = f(Y), X = Y.\nhello(world).\n" in
  let t = sup ~workers:1 ~src () in
  match
    Deadline.within ~seconds:2.0 (fun () ->
        List.map served
          (Server.Supervise.serve t
             [ request 0 "p(X)"; request 1 "q"; request 2 "hello(X)" ]))
  with
  | [ cyclic; unify; hello ] ->
    Alcotest.(check bool) "cyclic answer reported" true (cyclic.Server.Serve.rs_error <> None);
    Alcotest.(check bool) "cyclic unification reported" true
      (unify.Server.Serve.rs_error <> None);
    Alcotest.(check (option string)) "next request answered" None hello.Server.Serve.rs_error;
    Alcotest.(check string) "next answer" "X = world" (answers_text hello.Server.Serve.rs_answers)
  | _ -> Alcotest.fail "expected three responses"

(* A miss compiles only its query onto the server's database image and
   touches a few simulated-memory pages: one run of a small query on
   serve-churn's database stays far below the 2 MB of 64K-word chunks
   and the whole-database compile a miss used to cost. *)
let test_miss_allocation () =
  let churn = [ ("deriv", 1000); ("qsort", 1000); ("tak", 24); ("matrix", 500) ] in
  let t =
    Server.Serve.create (Server.Serve.config ~workers:1 ~src:(Server.Traffic.database churn) ())
  in
  let miss query ~answer ~bound =
    (* the domain's counters advance at collections: flush both ends *)
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.major_words in
    let answers = direct_answers t query in
    Gc.minor ();
    let words = (Gc.quick_stat ()).Gc.major_words -. before in
    Alcotest.(check string) "answer" answer (answers_text answers);
    if words >= bound then Alcotest.failf "%s allocated %.0f major words" query words
  in
  (* the first miss may make the domain's machine and the image's
     workspace; a second one runs on them (149-171 words measured,
     the machine record a released machine keeps in the pool) *)
  miss "tak(6, 3, 2, A)" ~answer:"A = 3" ~bound:65536.;
  miss "tak(7, 4, 2, A)" ~answer:"A = 4" ~bound:300.

(* ---------------- traffic ---------------- *)

let test_parse_mix () =
  (match Server.Traffic.parse_mix "qsort:4,tak" with
  | Ok mix ->
    Alcotest.(check (list (pair string int)))
      "counts parsed, default 16"
      [ ("qsort", 4); ("tak", 16) ]
      mix
  | Error e -> Alcotest.failf "parse_mix: %s" e);
  (match Server.Traffic.parse_mix "nosuch:3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown benchmark must be rejected");
  match Server.Traffic.parse_mix "qsort:0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-positive count must be rejected"

let test_traffic_deterministic () =
  let mix = [ ("qsort", 4); ("tak", 4) ] in
  let a = Server.Traffic.requests mix ~seed:42 ~s:1.1 ~n:50 in
  let b = Server.Traffic.requests mix ~seed:42 ~s:1.1 ~n:50 in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  let c = Server.Traffic.requests mix ~seed:43 ~s:1.1 ~n:50 in
  Alcotest.(check bool) "different seed, different stream" true (a <> c);
  let pool = Server.Traffic.pool mix ~seed:42 in
  Alcotest.(check int) "pool size" 8 (Array.length pool);
  Array.iter
    (fun (r : Server.Serve.request) ->
      Alcotest.(check bool) "every request from the pool" true
        (Array.exists (fun q -> q = r.Server.Serve.rq_query) pool))
    a

let test_traffic_zipf_skew () =
  (* rank 0 must dominate the tail under the zipfian mix *)
  let mix = [ ("qsort", 8) ] in
  let pool = Server.Traffic.pool mix ~seed:42 in
  let reqs = Server.Traffic.requests mix ~seed:42 ~s:1.1 ~n:400 in
  let count q =
    Array.fold_left
      (fun acc (r : Server.Serve.request) ->
        if r.Server.Serve.rq_query = q then acc + 1 else acc)
      0 reqs
  in
  Alcotest.(check bool) "rank 0 beats the last rank" true
    (count pool.(0) > count pool.(Array.length pool - 1))

(* ---------------- harness end to end ---------------- *)

let tiny_params ?faults () =
  let d = Server.Harness.default_params ~quick:true () in
  {
    d with
    Server.Harness.mix = [ ("qsort", 6) ];
    requests = 60;
    batch = 30;
    workers = 2;
    seed = 7;
    faults;
  }

let test_harness_invariants () =
  let o = Server.Harness.run (tiny_params ()) in
  Alcotest.(check bool) "answers equal" true o.Server.Harness.o_answers_equal;
  Alcotest.(check int) "every pool query checked" 6
    o.Server.Harness.o_answers_checked;
  Alcotest.(check bool) "cold hit rate >= 0.5" true
    (Server.Harness.hit_rate_ok o);
  Alcotest.(check bool) "warm beats memo-off" true
    (Server.Harness.warm_speedup_ok o);
  Alcotest.(check bool) "p99 finite" true (Server.Harness.p99_finite o);
  Alcotest.(check bool) "M/G/1 ratio finite and positive" true
    (Server.Harness.mg1_ratio_ok o);
  Alcotest.(check int) "all requests served in each phase" 60
    o.Server.Harness.o_off.Server.Harness.ph_requests;
  (* the report serializes without raising, with greppable invariants *)
  let json = Obs.Json.to_string (Server.Report.to_json o) in
  let contains needle =
    let nh = String.length json and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub json i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "JSON mentions %s" needle)
        true (contains needle))
    [
      "\"schema\": \"rapwam-server/1\"";
      "\"answers_equal\": true";
      "\"hit_rate_ok\": true";
      "\"p99_finite\": true";
      "\"mg1_ratio_ok\": true";
    ]

let test_param_validation () =
  let ok = Server.Harness.default_params ~quick:true () in
  Alcotest.(check bool) "defaults validate" true
    (Server.Harness.validate ok = Ok ());
  let rejects label p =
    match Server.Harness.validate p with
    | Ok () -> Alcotest.fail (label ^ " must be rejected")
    | Error msg ->
      Alcotest.(check bool) (label ^ " message non-empty") true
        (String.length msg > 0)
  in
  rejects "requests=0" { ok with Server.Harness.requests = 0 };
  rejects "batch=-1" { ok with Server.Harness.batch = -1 };
  rejects "pes=0" { ok with Server.Harness.pes = 0 };
  rejects "workers=0" { ok with Server.Harness.workers = 0 };
  rejects "memo_words=0" { ok with Server.Harness.memo_words = 0 };
  rejects "memo_shards=0" { ok with Server.Harness.memo_shards = 0 };
  rejects "threshold=0" { ok with Server.Harness.threshold = 0 };
  rejects "max_queue=0" { ok with Server.Harness.max_queue = 0 };
  rejects "zipf_s=0" { ok with Server.Harness.zipf_s = 0. };
  rejects "empty mix" { ok with Server.Harness.mix = [] };
  rejects "zero mix weight"
    { ok with Server.Harness.mix = [ ("qsort", 0) ] };
  (* every problem is reported, not just the first *)
  (match
     Server.Harness.validate
       { ok with Server.Harness.requests = 0; Server.Harness.pes = -3 }
   with
  | Ok () -> Alcotest.fail "two bad fields must be rejected"
  | Error msg ->
    List.iter
      (fun needle ->
        let nh = String.length msg and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub msg i nn = needle || go (i + 1))
        in
        Alcotest.(check bool)
          (Printf.sprintf "mentions %s" needle)
          true (go 0))
      [ "requests"; "pes" ]);
  (* run refuses invalid params up front *)
  match Server.Harness.run { ok with Server.Harness.requests = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "run must raise Invalid_argument on bad params"

let test_harness_contains_crash_by_default () =
  (* the supervisor's default: the crash poisons one request, the run
     completes, and the rest of the answers stay correct *)
  let faults = Resilience.Fault.make [ ("cell-start", Resilience.Fault.Crash, 5) ] in
  let o = Server.Harness.run (tiny_params ~faults ()) in
  Alcotest.(check int) "one request crashed (cold phase)" 1
    o.Server.Harness.o_cold.Server.Harness.ph_sup.Server.Supervise.crashed;
  Alcotest.(check bool) "answers still equal" true
    o.Server.Harness.o_answers_equal

let test_harness_degrades_on_eio () =
  (* a non-lethal fault marks one request and the run completes *)
  let faults = Resilience.Fault.make [ ("sim-step", Resilience.Fault.Eio, 3) ] in
  let o = Server.Harness.run (tiny_params ~faults ()) in
  Alcotest.(check int) "one request faulted (cold phase)" 1
    o.Server.Harness.o_cold.Server.Harness.ph_sup.Server.Supervise.faulted;
  Alcotest.(check bool) "answers still equal" true
    o.Server.Harness.o_answers_equal

(* The artifact's per-phase "faulted" folds every unavailable outcome
   but a shed one: one faulted and one contained crash read as 2. *)
let test_report_folds_faulted () =
  let faults =
    Resilience.Fault.make
      [ ("sim-step", Resilience.Fault.Eio, 3); ("sim-step", Resilience.Fault.Crash, 5) ]
  in
  let o = Server.Harness.run (tiny_params ~faults ()) in
  let cold = o.Server.Harness.o_cold.Server.Harness.ph_sup in
  Alcotest.(check int) "one faulted" 1 cold.Server.Supervise.faulted;
  Alcotest.(check int) "one crashed" 1 cold.Server.Supervise.crashed;
  match Json_reader.member "phases" (Server.Report.to_json o) with
  | Obs.Json.List [ _; cold_json; _ ] ->
    Alcotest.(check bool) "cold phase reports faulted 2" true
      (Json_reader.member "faulted" cold_json = Obs.Json.Int 2)
  | _ -> Alcotest.fail "expected three phases"

(* ---------------- config validation & metrics ---------------- *)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* The direct run reports a program error as its text, the same text
   a served request carries. *)
let test_run_direct_error () =
  let t = sup () in
  let query = "X is foo + 1" in
  match Server.Serve.run_direct (Server.Supervise.server t) query with
  | Ok _ -> Alcotest.fail "a runtime error gave answers"
  | Error msg ->
    Alcotest.(check bool) ("names the error: " ^ msg) true
      (contains ~affix:"not evaluable: foo/0" msg);
    (match Server.Supervise.serve t [ request 0 query ] with
    | [ r ] ->
      Alcotest.(check (option string)) "served with the same text" (Some msg)
        (served r).Server.Serve.rs_error
    | _ -> Alcotest.fail "expected one response")

let test_serve_config_validation () =
  let mk ?pes ?workers ?threshold ?max_queue () =
    Server.Serve.config ?pes ?workers ?threshold ?max_queue ~src:"a." ()
  in
  ignore (mk ());
  let rejects field f =
    match f () with
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (field ^ " error names the field") true
        (contains ~affix:field msg)
    | _ -> Alcotest.failf "config with bad %s accepted" field
  in
  rejects "pes" (fun () -> mk ~pes:0 ());
  rejects "workers" (fun () -> mk ~workers:0 ());
  rejects "threshold" (fun () -> mk ~threshold:0 ());
  rejects "max_queue" (fun () -> mk ~max_queue:(-1) ())

let test_metrics_percentile_edges () =
  let feq name a b = Alcotest.(check (float 1e-12)) name a b in
  (* empty buffer: everything reads 0, nothing raises *)
  let empty = Server.Metrics.create () in
  feq "empty mean" 0. (Server.Metrics.mean empty);
  feq "empty p99" 0. (Server.Metrics.percentile empty 99.);
  let s = Server.Metrics.summary empty in
  Alcotest.(check int) "empty count" 0 s.Server.Metrics.n;
  feq "empty max" 0. s.Server.Metrics.max_s;
  feq "empty cs2" 0. (snd (Server.Metrics.mean_and_cs2 empty));
  (* one sample: every percentile is that sample *)
  let one = Server.Metrics.of_samples [ 0.25 ] in
  List.iter
    (fun p ->
      feq (Printf.sprintf "single sample p%g" p) 0.25
        (Server.Metrics.percentile one p))
    [ 0.; 50.; 95.; 99.; 100. ];
  (* all-equal samples: flat percentiles, zero variance *)
  let eq = Server.Metrics.of_samples [ 2.0; 2.0; 2.0; 2.0; 2.0 ] in
  let s = Server.Metrics.summary eq in
  feq "all-equal p50" 2.0 s.Server.Metrics.p50_s;
  feq "all-equal p99" 2.0 s.Server.Metrics.p99_s;
  feq "all-equal max" 2.0 s.Server.Metrics.max_s;
  let mean, cs2 = Server.Metrics.mean_and_cs2 eq in
  feq "all-equal mean" 2.0 mean;
  feq "all-equal cs2" 0. cs2

let prop_metrics_percentiles_monotone =
  QCheck.Test.make ~count:200
    ~name:"metrics: p50 <= p95 <= p99 <= max over any samples"
    QCheck.(list_of_size Gen.(int_range 1 60) small_nat)
    (fun ints ->
      let xs = List.map (fun i -> float_of_int i /. 7.) ints in
      let s = Server.Metrics.summary (Server.Metrics.of_samples xs) in
      let lo = List.fold_left min infinity xs
      and hi = List.fold_left max neg_infinity xs in
      s.Server.Metrics.n = List.length xs
      && s.Server.Metrics.p50_s <= s.Server.Metrics.p95_s
      && s.Server.Metrics.p95_s <= s.Server.Metrics.p99_s
      && s.Server.Metrics.p99_s <= s.Server.Metrics.max_s
      && s.Server.Metrics.max_s = hi
      && s.Server.Metrics.p50_s >= lo
      && s.Server.Metrics.mean_s >= lo
      && s.Server.Metrics.mean_s <= hi)

(* ---------------- the supervisor ---------------- *)

let outcome_of (r : Server.Supervise.response) = r.Server.Supervise.sv_outcome

let test_supervise_retry_heals_transient () =
  let faults = Resilience.Fault.make [ ("sim-step", Resilience.Fault.Eio, 0) ] in
  let t = sup ~policy:(Server.Supervise.policy ~retries:2 ()) ~faults () in
  let direct =
    direct_answers (Server.Supervise.server t) qsort_query
  in
  (match Server.Supervise.serve t [ request 0 qsort_query ] with
  | [ r ] ->
    (match outcome_of r with
    | Server.Supervise.Retried n ->
      Alcotest.(check int) "healed on the first retry" 1 n
    | o -> Alcotest.failf "expected Retried, got %s"
             (Server.Supervise.outcome_name o));
    Alcotest.(check int) "two attempts" 2 r.Server.Supervise.sv_attempts;
    Alcotest.(check (option string)) "no error after healing" None
      r.Server.Supervise.sv.Server.Serve.rs_error;
    Alcotest.(check string) "answers equal direct"
      (answers_text direct)
      (answers_text r.Server.Supervise.sv.Server.Serve.rs_answers)
  | _ -> Alcotest.fail "expected one response");
  let s = Server.Supervise.stats t in
  Alcotest.(check int) "retried counted" 1 s.Server.Supervise.retried;
  Alcotest.(check int) "still ok" 1 s.Server.Supervise.ok;
  Alcotest.(check (float 1e-9)) "fully available" 1.0
    (Server.Supervise.availability s)

(* A non-crash fault at admission poisons only its own request, and
   the server keeps answering. *)
let test_supervise_admission_fault () =
  let faults = Resilience.Fault.make [ ("cell-start", Resilience.Fault.Eio, 0) ] in
  let t = sup ~faults () in
  let outcomes batch =
    List.map
      (fun r -> Server.Supervise.outcome_name (outcome_of r))
      (Server.Supervise.serve t batch)
  in
  Alcotest.(check (list string)) "first request faulted, second answered"
    [ "faulted"; "ok" ]
    (outcomes [ request 0 qsort_query; request 1 "hello(X)" ]);
  let s = Server.Supervise.stats t in
  Alcotest.(check int) "faulted counted" 1 s.Server.Supervise.faulted;
  Alcotest.(check int) "both served" 2 s.Server.Supervise.served;
  Alcotest.(check (list string)) "the next batch is answered" [ "ok" ]
    (outcomes [ request 2 qsort_query ])

let test_supervise_deadline_times_out () =
  let faults =
    Resilience.Fault.make ~stall_s:0.5
      [ ("sim-step", Resilience.Fault.Stall, 0) ]
  in
  let t =
    sup ~policy:(Server.Supervise.policy ~deadline_s:0.05 ()) ~faults ()
  in
  (match Server.Supervise.serve t [ request 0 qsort_query ] with
  | [ r ] ->
    Alcotest.(check string) "typed timeout" "timeout"
      (Server.Supervise.outcome_name (outcome_of r));
    (match r.Server.Supervise.sv.Server.Serve.rs_error with
    | Some msg ->
      Alcotest.(check bool) "error says deadline" true
        (contains ~affix:"deadline" msg)
    | None -> Alcotest.fail "timeout must carry an error")
  | _ -> Alcotest.fail "expected one response");
  let s = Server.Supervise.stats t in
  Alcotest.(check int) "timeout counted" 1 s.Server.Supervise.timeouts;
  Alcotest.(check bool) "availability dented" true
    (Server.Supervise.availability s < 1.0)

(* One worker, one batch: a runtime error, an injected sim-step fault
   and a deadline timeout (whose abandoned attempt finishes on its
   helper thread meanwhile) among good queries, then a batch of good
   queries.  No run that raised hands its machine or its workspace on,
   so every good query gets the direct-run answer. *)
let test_supervise_recovers_on_one_worker () =
  let good =
    [ qsort_query; "qsort([2,1], S)"; "qsort([9,8,7,6,5,4,3,2,1,0], S)"; "hello(X)";
      "qsort([5,5,1,3,3], S)"; "qsort([], S)"; "qsort([4,2,6,1,3,5], S)"; "hello(world)" ]
  in
  let bad = "qsort([3,1,2], S), X is S + 1" in
  let fresh = sup ~workers:1 () in
  let direct = List.map (fun q -> (q, answers_text (run_direct fresh q))) good in
  let faults =
    Resilience.Fault.make ~stall_s:0.3
      [ ("sim-step", Resilience.Fault.Eio, 3); ("sim-step", Resilience.Fault.Stall, 6) ]
  in
  let t = sup ~policy:(Server.Supervise.policy ~deadline_s:0.1 ()) ~faults ~workers:1 () in
  let check_good (r : Server.Supervise.response) =
    let rs = served r in
    match List.assoc_opt rs.Server.Serve.rs_query direct with
    | Some answer when rs.Server.Serve.rs_error = None ->
      Alcotest.(check string) rs.Server.Serve.rs_query answer (answers_text rs.Server.Serve.rs_answers)
    | Some _ | None -> ()
  in
  let first =
    Server.Supervise.serve t
      (List.mapi request (List.filteri (fun i _ -> i < 2) good @ (bad :: List.filteri (fun i _ -> i >= 2) good)))
  in
  let outcomes = List.map (fun r -> Server.Supervise.outcome_name (outcome_of r)) first in
  Alcotest.(check (list string)) "one fault and one timeout"
    [ "faulted"; "timeout" ]
    (List.sort compare (List.filter (fun o -> o <> "ok") outcomes));
  Alcotest.(check bool) "the runtime error is its request's" true
    (List.exists
       (fun r ->
         (served r).Server.Serve.rs_query = bad
         && (served r).Server.Serve.rs_error <> None
         && outcome_of r = Server.Supervise.Ok)
       first);
  List.iter check_good first;
  let second = Server.Supervise.serve t (List.mapi (fun i q -> request (100 + i) q) good) in
  List.iter
    (fun r ->
      Alcotest.(check string) "answered after the failures" "ok"
        (Server.Supervise.outcome_name (outcome_of r));
      check_good r)
    second;
  (* let the abandoned attempt finish before the next test *)
  Thread.delay 0.3

(* Two domains serve misses through one server: both engines' machine
   pool and the image's workspaces are shared, and the answers equal
   one domain's. *)
let test_two_domains_share_pools () =
  let queries =
    Array.init 40 (fun i ->
        if i mod 3 = 0 then Printf.sprintf "hello(X%d)" i
        else Printf.sprintf "qsort([%d,%d,%d,1,%d], S)" (i mod 7) i (40 - i) (i * 3))
  in
  List.iter
    (fun pes ->
      let t = Server.Serve.create (Server.Serve.config ~pes ~workers:2 ~src ()) in
      let answers qs = Array.map (fun q -> answers_text (direct_answers t q)) qs in
      let one = answers queries in
      let two = Engine.Pool.map ~jobs:2 (fun i -> answers (Array.sub queries (20 * i) 20)) [| 0; 1 |] in
      Alcotest.(check (array string)) (Printf.sprintf "%d PEs: two domains answer as one" pes) one
        (Array.append two.(0) two.(1)))
    [ 1; 4 ]

let test_supervise_contains_pooled_crash () =
  (* workers=1 makes the wave deterministic: the first pooled
     execution crashes its domain, abandoning the rest of the wave,
     which must be respawned and complete *)
  let faults =
    Resilience.Fault.make [ ("sim-step", Resilience.Fault.Crash, 0) ]
  in
  let t = sup ~faults ~workers:1 () in
  let queries =
    [ qsort_query; "qsort([2,1], S)"; "qsort([5,4,3], S)" ]
  in
  let batch = List.mapi request queries in
  let responses = Server.Supervise.serve t batch in
  Alcotest.(check int) "all answered" 3 (List.length responses);
  let crashed, rest =
    List.partition
      (fun r -> outcome_of r = Server.Supervise.Crashed)
      responses
  in
  Alcotest.(check int) "exactly one crashed" 1 (List.length crashed);
  List.iter
    (fun (r : Server.Supervise.response) ->
      Alcotest.(check string)
        (Printf.sprintf "request %d correct despite the crash"
           r.Server.Supervise.sv.Server.Serve.rs_id)
        (answers_text
           (direct_answers (Server.Supervise.server t)
              r.Server.Supervise.sv.Server.Serve.rs_query))
        (answers_text r.Server.Supervise.sv.Server.Serve.rs_answers))
    rest;
  let s = Server.Supervise.stats t in
  Alcotest.(check int) "crashed counted" 1 s.Server.Supervise.crashed;
  Alcotest.(check bool) "pool respawned for the abandoned wave" true
    (s.Server.Supervise.pool_respawns >= 1)

let test_supervise_breaker_trips_and_probes () =
  let breaker =
    {
      Server.Supervise.window = 4;
      trip_ratio = 0.5;
      min_samples = 2;
      cooldown = 2;
    }
  in
  let faults =
    Resilience.Fault.make
      [
        ("sim-step", Resilience.Fault.Eio, 0);
        ("sim-step", Resilience.Fault.Eio, 1);
      ]
  in
  let t = sup ~policy:(Server.Supervise.policy ~breaker ()) ~faults () in
  let one i =
    match Server.Supervise.serve t [ request i qsort_query ] with
    | [ r ] -> r
    | _ -> Alcotest.fail "expected one response"
  in
  (* two consecutive failures trip the circuit... *)
  let names = List.map (fun i ->
      Server.Supervise.outcome_name (outcome_of (one i)))
      [ 0; 1; 2; 3; 4 ]
  in
  Alcotest.(check (list string))
    "fail, fail+trip, fast-fail, probe heals, closed"
    [ "faulted"; "faulted"; "shed"; "ok"; "ok" ]
    names;
  let s = Server.Supervise.stats t in
  Alcotest.(check int) "circuit opened once" 1
    s.Server.Supervise.breaker_opens;
  Alcotest.(check int) "one fast-fail while open" 1
    s.Server.Supervise.breaker_fastfails;
  Alcotest.(check int) "fast-fail counted as shed" 1 s.Server.Supervise.shed

let test_supervise_shed_watermark () =
  let t = sup ~policy:(Server.Supervise.policy ~shed_watermark:1 ()) () in
  let queries =
    [ qsort_query; "qsort([2,1], S)"; "qsort([5,4,3], S)" ]
  in
  let responses = Server.Supervise.serve t (List.mapi request queries) in
  (match List.map outcome_of responses with
  | [ Server.Supervise.Ok; Server.Supervise.Shed; Server.Supervise.Shed ] ->
    ()
  | outcomes ->
    Alcotest.failf "expected [ok; shed; shed], got [%s]"
      (String.concat "; "
         (List.map Server.Supervise.outcome_name outcomes)));
  List.iter
    (fun (r : Server.Supervise.response) ->
      if outcome_of r = Server.Supervise.Shed then
        match r.Server.Supervise.sv.Server.Serve.rs_error with
        | Some msg ->
          Alcotest.(check bool) "shed error names the watermark" true
            (contains ~affix:"watermark" msg)
        | None -> Alcotest.fail "a shed response must carry an error")
    responses;
  let s = Server.Supervise.stats t in
  Alcotest.(check int) "two shed" 2 s.Server.Supervise.shed;
  Alcotest.(check int) "backlog depth recorded" 3
    s.Server.Supervise.max_depth;
  (* memo hits are never shed: re-ask the query that ran *)
  let memo = Memo.Table.create ~capacity_words:0 () in
  let t2 =
    sup ~policy:(Server.Supervise.policy ~shed_watermark:1 ()) ~memo ()
  in
  ignore (Server.Supervise.serve t2 [ request 0 qsort_query ]);
  let responses2 =
    Server.Supervise.serve t2 (List.mapi request [ qsort_query; qsort_query ])
  in
  List.iter
    (fun (r : Server.Supervise.response) ->
      Alcotest.(check string) "hit lane stays live under shedding" "ok"
        (Server.Supervise.outcome_name (outcome_of r)))
    responses2

let test_run_chaos_smoke () =
  (* eio + retry heals; snapshot -> restore keeps the hit rate *)
  let faults =
    Resilience.Fault.make [ ("sim-step", Resilience.Fault.Eio, 3) ]
  in
  let p =
    {
      (tiny_params ~faults ()) with
      Server.Harness.policy = Server.Supervise.policy ~retries:2 ();
    }
  in
  let c = Server.Harness.run_chaos p in
  Alcotest.(check bool) "availability >= 0.95" true
    (Server.Harness.availability_ok c);
  Alcotest.(check bool) "retry healed the fault" true
    (c.Server.Harness.c_chaos.Server.Harness.ph_sup.Server.Supervise.retried
     >= 1);
  Alcotest.(check bool) "snapshot non-empty" true
    (c.Server.Harness.c_snapshot_entries > 0);
  Alcotest.(check int) "restore got every entry"
    c.Server.Harness.c_snapshot_entries
    c.Server.Harness.c_restore.Memo.Snapshot.entries;
  Alcotest.(check bool) "warm restart keeps the hit rate" true
    (Server.Harness.warm_restart_ok c);
  Alcotest.(check bool) "answers equal" true
    (Server.Harness.chaos_answers_ok c);
  (* the chaos report serializes with greppable gates *)
  let json = Obs.Json.to_string (Server.Report.chaos_to_json c) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "chaos JSON mentions %s" needle)
        true
        (contains ~affix:needle json))
    [
      "\"schema\": \"rapwam-chaos/1\"";
      "\"availability_ok\": true";
      "\"warm_restart_ok\": true";
      "\"answers_equal\": true";
    ]

let suite =
  [
    Alcotest.test_case "served answers equal direct runs" `Quick
      test_serve_matches_direct;
    Alcotest.test_case "memo off still serves correctly" `Quick
      test_memo_off;
    Alcotest.test_case "admission lanes (Small inline, Keep pooled)" `Quick
      test_admission_lanes;
    Alcotest.test_case "bad query is a per-request error" `Quick
      test_bad_query_is_an_error;
    Alcotest.test_case "direct run returns a runtime error's text" `Quick
      test_run_direct_error;
    Alcotest.test_case "lexical error is a syntax error" `Quick
      test_lexical_error_is_a_syntax_error;
    Alcotest.test_case "cyclic answer is a per-request error" `Quick
      test_cyclic_answer_is_an_error;
    Alcotest.test_case "a miss allocates what its query uses" `Quick test_miss_allocation;
    Alcotest.test_case "parse_mix" `Quick test_parse_mix;
    Alcotest.test_case "traffic is seed-deterministic" `Quick
      test_traffic_deterministic;
    Alcotest.test_case "traffic is zipf-skewed" `Quick test_traffic_zipf_skew;
    Alcotest.test_case "harness: params validated up front" `Quick
      test_param_validation;
    Alcotest.test_case "harness: acceptance invariants hold" `Slow
      test_harness_invariants;
    Alcotest.test_case "harness: crash contained by default" `Quick
      test_harness_contains_crash_by_default;
    Alcotest.test_case "harness: non-lethal fault degrades gracefully" `Slow
      test_harness_degrades_on_eio;
    Alcotest.test_case "report: faulted folds crashed and timed-out requests"
      `Slow test_report_folds_faulted;
    Alcotest.test_case "serve config: each field validated" `Quick
      test_serve_config_validation;
    Alcotest.test_case "metrics: percentile edges" `Quick
      test_metrics_percentile_edges;
    QCheck_alcotest.to_alcotest prop_metrics_percentiles_monotone;
    Alcotest.test_case "supervise: retry heals a transient fault" `Quick
      test_supervise_retry_heals_transient;
    Alcotest.test_case "supervise: admission fault poisons one request"
      `Quick test_supervise_admission_fault;
    Alcotest.test_case "supervise: deadline becomes a typed timeout" `Quick
      test_supervise_deadline_times_out;
    Alcotest.test_case "supervise: pooled crash contained, pool respawned"
      `Quick test_supervise_contains_pooled_crash;
    Alcotest.test_case "supervise: breaker trips, fast-fails, probes closed"
      `Quick test_supervise_breaker_trips_and_probes;
    Alcotest.test_case "supervise: shedding spares hits and the watermark"
      `Quick test_supervise_shed_watermark;
    Alcotest.test_case "harness: chaos pipeline end to end" `Slow
      test_run_chaos_smoke;
    Alcotest.test_case "supervise: one worker recovers from an error, a fault and a timeout"
      `Quick test_supervise_recovers_on_one_worker;
    Alcotest.test_case "two domains share the machine and workspace pools" `Quick
      test_two_domains_share_pools;
  ]
