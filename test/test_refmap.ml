(* Tests for the static memory-area access analysis: the mode
   lattice, the soundness oracle (every dynamic access inside the
   static summary, on every benchmark at 1/4/8 PEs), the parcall
   certification decisions and their agreement with tracecheck, the
   predicted shareability tags, and the oracle's diagnostics under a
   seeded defect.  Defect detection itself is checked for every
   analysis at once in test_certify. *)

open QCheck
module R = Certification.Make (Refmap.Instance)

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
      let r = R.run (small name) in
      Hashtbl.add tbl name r;
      r

(* ---- mode lattice ---- *)

let mode_arb =
  QCheck.make
    ~print:(fun m -> Refmap.Mode.name m)
    (QCheck.Gen.oneofl
       Refmap.Mode.
         [ Nil; Read; Write_once; Local_write; Shared_write ])

let test_mode_lattice =
  Test.make ~name:"mode join is a linear-order lub" ~count:200
    (triple mode_arb mode_arb mode_arb) (fun (a, b, c) ->
      let open Refmap.Mode in
      join a b = join b a
      && join a (join b c) = join (join a b) c
      && join a a = a
      && leq a (join a b)
      && leq b (join a b)
      && (leq a b || leq b a))

let test_mode_permits () =
  let s = Refmap.Summary.empty () in
  Refmap.Summary.set s Trace.Area.Heap Refmap.Mode.Write_once;
  Refmap.Summary.set s Trace.Area.Trail Refmap.Mode.Read;
  Alcotest.(check bool) "heap read" true
    (Refmap.Summary.permits s Trace.Area.Heap Trace.Ref_record.Read);
  Alcotest.(check bool) "heap write" true
    (Refmap.Summary.permits s Trace.Area.Heap Trace.Ref_record.Write);
  Alcotest.(check bool) "trail read" true
    (Refmap.Summary.permits s Trace.Area.Trail Trace.Ref_record.Read);
  Alcotest.(check bool) "trail write rejected" false
    (Refmap.Summary.permits s Trace.Area.Trail Trace.Ref_record.Write);
  Alcotest.(check bool) "untouched area read rejected" false
    (Refmap.Summary.permits s Trace.Area.Pdl Trace.Ref_record.Read)

(* ---- soundness oracle on real benchmarks ---- *)

let test_oracle_sound () =
  List.iter
    (fun name ->
      let r = report name in
      Alcotest.(check (list int))
        (name ^ " PE counts") [ 1; 4; 8 ]
        (List.map (fun (p : _ Certification.run) -> p.n_pes) r.runs);
      List.iter
        (fun (p : Refmap.Instance.oracle Certification.run) ->
          Alcotest.(check int)
            (Printf.sprintf "%s@%dPE violations" name p.n_pes)
            0
            (List.length p.oracle.violations))
        r.runs;
      Alcotest.(check bool) (name ^ " oracle_ok") true r.oracle_ok)
    bench_names

(* The qcheck form of the same oracle: a random benchmark at a random
   PE count never escapes its static summaries. *)
let test_oracle_qcheck =
  Test.make ~name:"dynamic access set within static summary" ~count:8
    (pair (oneofl bench_names) (int_range 1 8)) (fun (name, n_pes) ->
      let r = R.run ~pes:[ n_pes ] (small name) in
      r.oracle_ok)

(* ---- certification ---- *)

let cert name = (report name).a.Refmap.Instance.certify

let test_certification () =
  let expect = [ ("deriv", 4, 4); ("tak", 1, 1); ("qsort", 1, 1); ("matrix", 1, 2) ] in
  List.iter
    (fun (name, certified, total) ->
      let c = cert name in
      Alcotest.(check int) (name ^ " certified") certified c.Refmap.Certify.certified;
      Alcotest.(check int) (name ^ " total") total c.Refmap.Certify.total)
    expect

let test_static_safe_stat () =
  (* the certifier's static_safe count over the front end's annotation
     agrees with the clean derivation (the audit) *)
  List.iter
    (fun name ->
      let r = report name in
      Alcotest.(check int) (name ^ " static_safe")
        (cert name).Refmap.Certify.certified
        r.a.Refmap.Instance.static_safe;
      Alcotest.(check bool) (name ^ " audit_ok") true r.audit_ok)
    bench_names

let test_certified_groups_race_free () =
  (* every static_safe claim is backed by clean dynamic traces: the
     certified groups may skip the tracecheck verify stage *)
  List.iter
    (fun name ->
      let r = report name in
      Alcotest.(check bool)
        (name ^ " certified groups tracecheck-clean")
        true r.trace_ok;
      Alcotest.(check int)
        (name ^ " uncertified-but-raced")
        0
        (Refmap.Instance.uncertified_but_raced r))
    bench_names

let test_uncertified_reason () =
  (* matrix's uncertified group carries a human-readable reason *)
  let c = cert "matrix" in
  let open Refmap.Certify in
  let uncert =
    List.filter (fun e -> not e.decision.certified) c.entries
  in
  Alcotest.(check int) "one uncertified group" 1 (List.length uncert);
  List.iter
    (fun e ->
      Alcotest.(check bool) "reason non-empty" true
        (String.length e.decision.reason > 0))
    uncert

(* ---- predicted shareability tags ---- *)

let test_tags () =
  List.iter
    (fun name ->
      let t = Refmap.Instance.tags (report name) in
      Alcotest.(check (float 0.0)) (name ^ " recall") 1.0 t.Refmap.Oracle.recall;
      Alcotest.(check bool)
        (name ^ " precision >= baseline")
        true
        (t.Refmap.Oracle.precision >= t.Refmap.Oracle.baseline_precision);
      Alcotest.(check bool)
        (name ^ " covers the shared set")
        true
        (t.Refmap.Oracle.predicted_shared >= t.Refmap.Oracle.dyn_shared))
    bench_names

(* ---- seeded defects ---- *)

let test_defect_diagnostics () =
  (* oracle violations carry predicate/area/mode detail *)
  let trail_blind =
    List.find
      (fun (d : Certification.defect) -> d.name = "trail-blind")
      Refmap.Instance.defects
  in
  let r = R.run ~defect:trail_blind ~pes:[ 4 ] (small "qsort") in
  let vs =
    List.concat_map
      (fun (p : Refmap.Instance.oracle Certification.run) -> p.oracle.violations)
      r.runs
  in
  Alcotest.(check bool) "violations reported" true (vs <> []);
  List.iter
    (fun (v : Refmap.Oracle.violation) ->
      Alcotest.(check bool) "area is the trail" true
        (v.Refmap.Oracle.area = Trace.Area.Trail);
      Alcotest.(check bool) "names a predicate" true
        (String.length v.Refmap.Oracle.pred > 0);
      Alcotest.(check string) "summary mode nil" "nil"
        (Refmap.Mode.name v.Refmap.Oracle.mode))
    vs

(* ---- static tables ---- *)

let test_summaries_closed () =
  (* benchmark code has no unresolved calls: every predicate's closure
     is closed, so certification can trust the mode bounds *)
  List.iter
    (fun name ->
      let s = (report name).a.Refmap.Instance.static in
      Hashtbl.iter
        (fun _ (p : Refmap.Static.pred) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s/%d closed" name p.Refmap.Static.name
               p.Refmap.Static.arity)
            true p.Refmap.Static.closure.Refmap.Summary.closed)
        s.Refmap.Static.preds)
    bench_names

(* A local-stack word PE 0 first uses as an environment control word
   and later as a parcall count, which PE 1 reads: only the
   parcall-count accesses are shared, and that tag predicts them. *)
let test_tags_per_area () =
  let r = report "deriv" in
  let static = r.a.Refmap.Instance.static in
  let addr = Wam.Layout.local_base 0 + 27 in
  let buf = Trace.Sink.Buffer_sink.create () in
  List.iter
    (fun (pe, area, op) ->
      Trace.Sink.Buffer_sink.push buf
        (Trace.Ref_record.pack { Trace.Ref_record.pe; addr; area; op }))
    [
      (0, Trace.Area.Env_control, Trace.Ref_record.Write);
      (0, Trace.Area.Parcall_count, Trace.Ref_record.Write);
      (1, Trace.Area.Parcall_count, Trace.Ref_record.Read);
    ];
  let t =
    Refmap.Oracle.score_tags static
      (Refmap.Collect.of_buffer r.base_build.prog buf)
  in
  Alcotest.(check (float 0.0)) "recall" 1.0 t.Refmap.Oracle.recall;
  Alcotest.(check int) "one (address, area) pair per tag" 2
    t.Refmap.Oracle.addrs;
  Alcotest.(check int) "the parcall-count pair is shared" 1
    t.Refmap.Oracle.dyn_shared

let suite =
  [
    QCheck_alcotest.to_alcotest test_mode_lattice;
    Alcotest.test_case "summary permits" `Quick test_mode_permits;
    Alcotest.test_case "oracle sound on all benchmarks at 1/4/8 PEs" `Slow
      test_oracle_sound;
    QCheck_alcotest.to_alcotest test_oracle_qcheck;
    Alcotest.test_case "certification counts" `Quick test_certification;
    Alcotest.test_case "static_safe stat audited" `Quick test_static_safe_stat;
    Alcotest.test_case "certified groups tracecheck-clean" `Quick
      test_certified_groups_race_free;
    Alcotest.test_case "uncertified group explains itself" `Quick
      test_uncertified_reason;
    Alcotest.test_case "tag recall 1.0, precision over baseline" `Quick
      test_tags;
    Alcotest.test_case "defect diagnostics name pred/area/mode" `Quick
      test_defect_diagnostics;
    Alcotest.test_case "benchmark summaries closed" `Quick test_summaries_closed;
    Alcotest.test_case "tags scored per (address, area)" `Quick
      test_tags_per_area;
  ]
