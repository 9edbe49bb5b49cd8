(* refmap as a certification instance.  The analysis summarizes the
   compiled base code per predicate and area, and its race-freedom
   certifier scores every parallel group of the front end's
   annotation: [static_safe] counts the groups the certifier passes.
   The certificate changes no code, so there is no variant build: each
   PE count runs once, the oracle checks every attributed access
   against the summaries and scores the predicted shareability tags
   against the per-(address, area) ground truth, and tracecheck
   replays the same trace as the dynamic cross-check.  The audit
   compares [static_safe] with the clean derivation, [Certify]'s own
   decisions. *)

let name = "refmap"

let doc =
  "static access summaries vs dynamic traces: parcall race-freedom \
   certification and shareability-tag prediction"

type t = {
  static : Static.t;
  groups : int;  (** parallel groups the front end's annotation emitted *)
  static_safe : int;  (** of its groups, those the certifier passes *)
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
  let certify = Certify.database static fe.annotated in
  let static_safe =
    List.length
      (List.filter
         (fun (e : Certify.entry) -> certifier e.checks e.arms)
         certify.entries)
  in
  { static; groups = fe.stats.groups; static_safe; certify }

let audit_ok a = a.static_safe = a.certify.Certify.certified

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
    r.a.certify.certified r.a.certify.total r.a.static_safe tg.addrs
    tg.dyn_shared tg.precision tg.baseline_precision tg.recall

let run_summary (run : oracle Certification.run) =
  Printf.sprintf "%d records" run.oracle.records

let json_fields (r : (t, oracle) Certification.report) =
  let module J = Obs.Json in
  let cert = r.a.certify and tg = tags r in
  [
    ("preds", J.Int (Hashtbl.length r.a.static.preds));
    ("parallel", J.Bool r.a.static.parallel);
    ("analysis_ms", J.Float r.analysis_ms);
    ("closure_iterations", J.Int r.a.static.iterations);
    ("groups_total", J.Int cert.total);
    ("groups_certified", J.Int cert.certified);
    ("all_certified", J.Bool (cert.total > 0 && cert.certified = cert.total));
    ("static_safe", J.Int r.a.static_safe);
    ("auto_groups", J.Int r.a.groups);
    ("audit_ok", J.Bool r.audit_ok);
    ("tag_addrs", J.Int tg.addrs);
    ("tag_dyn_shared", J.Int tg.dyn_shared);
    ("tag_predicted_shared", J.Int tg.predicted_shared);
    ("tag_precision", J.Float tg.precision);
    ("tag_recall", J.Float tg.recall);
    ("baseline_precision", J.Float tg.baseline_precision);
    ("precision_ge_baseline", J.Bool (tg.precision >= tg.baseline_precision));
    ("oracle_ok", J.Bool r.oracle_ok);
    ("certified_tracecheck_clean", J.Bool r.trace_ok);
    ("uncertified_but_raced", J.Int (uncertified_but_raced r));
  ]

let json_run (run : oracle Certification.run) =
  [
    ("records", Obs.Json.Int run.oracle.records);
    ("oracle_violations", Obs.Json.Int (List.length run.oracle.violations));
    ("tracecheck_clean", Obs.Json.Bool (Tracecheck.ok run.trace));
  ]
