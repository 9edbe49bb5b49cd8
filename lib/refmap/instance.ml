(* refmap as a certification instance.  The analysis summarizes the
   compiled base code per predicate and area, and the annotator
   re-runs with those summaries as its race-freedom certifier, scoring
   every parallel group it emits.  The certificate changes no code, so
   there is no variant build: each PE count runs once, the oracle
   checks every attributed access against the summaries and scores the
   predicted shareability tags against the per-address ground truth,
   and tracecheck replays the same trace as the dynamic cross-check.
   The audit re-derives the certification over the annotated database
   and compares it with the annotator's [static_safe] claim. *)

let name = "refmap"

let doc =
  "static access summaries vs dynamic traces: parcall race-freedom \
   certification and shareability-tag prediction"

type t = {
  static : Static.t;
  stats : Prolog.Annotate.stats;
  certify : Certify.report;
}

type oracle = {
  records : int;
  violations : Oracle.violation list;
  tags : Oracle.tag_score;
}

type violation = Oracle.violation

let base_plans _ = Certification.no_plans
let variant = None

let analyze ?defect (fe : Certification.front) ~(base : Certification.compiled)
    =
  let static = Static.build ~patterns:fe.patterns base.prog in
  Option.iter (fun d -> Defects.apply d static) defect;
  let certifier =
    match defect with
    | Some d when Defects.forces_certify d -> fun _ _ -> true
    | _ -> Certify.certifier static
  in
  let ann_db, stats =
    Prolog.Annotate.database_stats ~patterns:fe.patterns ~certifier fe.db
  in
  { static; stats; certify = Certify.database static ann_db }

let audit_ok a = a.stats.Prolog.Annotate.static_safe = a.certify.Certify.certified

let oracle a ~base:_ ~variant:_ buf =
  let c = Collect.of_buffer a.static buf in
  {
    records = c.Collect.records;
    violations = Oracle.check a.static c;
    tags = Oracle.score_tags a.static c;
  }

let violations o = o.violations
let pp_violation = Oracle.pp_violation
let defects = Defects.all
let fixtures = []

let dump fmt a =
  Format.fprintf fmt "%a" Static.pp a.static;
  List.iter
    (fun e -> Format.fprintf fmt "%a@." Certify.pp_entry e)
    a.certify.entries

(* Tags are scored at the largest PE count. *)
let tags (r : (t, oracle) Certification.report) =
  match List.rev r.runs with
  | last :: _ -> last.oracle.tags
  | [] -> Oracle.score_tags r.a.static (Collect.create r.a.static)

let uncertified_but_raced (r : (t, oracle) Certification.report) =
  if r.trace_ok then 0 else r.a.certify.total - r.a.certify.certified

let summary (r : (t, oracle) Certification.report) =
  let tg = tags r in
  Printf.sprintf
    "preds %-3d groups %d/%d certified (static_safe %d); tags: %d addrs, %d \
     shared, precision %.3f (baseline %.3f) recall %.3f"
    (Hashtbl.length r.a.static.preds)
    r.a.certify.certified r.a.certify.total r.a.stats.static_safe tg.addrs
    tg.dyn_shared tg.precision tg.baseline_precision tg.recall

let run_summary (run : oracle Certification.run) =
  Printf.sprintf "%d records" run.oracle.records

let json_fields (r : (t, oracle) Certification.report) =
  let cert = r.a.certify and tg = tags r in
  Printf.sprintf
    "\"preds\": %d, \"parallel\": %b, \"analysis_ms\": %.3f, \
     \"closure_iterations\": %d, \"groups_total\": %d, \"groups_certified\": \
     %d, \"all_certified\": %b, \"static_safe\": %d, \"auto_groups\": %d, \
     \"audit_ok\": %b, \"tag_addrs\": %d, \"tag_dyn_shared\": %d, \
     \"tag_predicted_shared\": %d, \"tag_precision\": %.4f, \"tag_recall\": \
     %.4f, \"baseline_precision\": %.4f, \"precision_ge_baseline\": %b, \
     \"oracle_ok\": %b, \"certified_tracecheck_clean\": %b, \
     \"uncertified_but_raced\": %d"
    (Hashtbl.length r.a.static.preds)
    r.a.static.parallel r.analysis_ms r.a.static.iterations cert.total
    cert.certified
    (cert.total > 0 && cert.certified = cert.total)
    r.a.stats.static_safe r.a.stats.groups r.audit_ok tg.addrs tg.dyn_shared
    tg.predicted_shared tg.precision tg.recall tg.baseline_precision
    (tg.precision >= tg.baseline_precision)
    r.oracle_ok r.trace_ok (uncertified_but_raced r)

let json_run (run : oracle Certification.run) =
  Printf.sprintf
    "\"records\": %d, \"oracle_violations\": %d, \"tracecheck_clean\": %b"
    run.oracle.records
    (List.length run.oracle.violations)
    (Tracecheck.ok run.trace)
