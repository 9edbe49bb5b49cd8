(* bindan as a certification instance.

   The base build compiles with detan's sound plan and logs its try
   chains; those chains seed the conditionality half of the domain and
   the groundness patterns its instantiation half.  {!Absint} scans
   the annotated database (the query modelled as a headless clause)
   and computes the uninit / rigid / no-trail certificates as greatest
   fixpoints, weakened first when a defect is seeded.  The "bind"
   variant compiles with the same det plan plus the bind plan, so the
   two code arrays are address-aligned and the {!Oracle} audits every
   certified site by replaying the base trace.  Per-area counts of
   both runs quantify what the specialization bought (trail first, the
   paper's Figure-4 levers). *)

let name = "bindan"

let doc =
  "binding-driven trail elision and deref-free unification: instantiation \
   and conditionality fixpoints and the trace-replay site oracle"

type t = { absr : Absint.result; plan : Plan.t }
type oracle = Oracle.report
type violation = Oracle.violation

let base_plans (fe : Certification.front) =
  let det = Detan.Exclusion.plan ~patterns:fe.patterns () in
  { Certification.no_plans with det = Some det }

let analyze ?defect (fe : Certification.front) ~(base : Certification.compiled)
    =
  let query_db =
    Prolog.Database.of_string
      ("'$bindan_query' :- " ^ fe.bench.Benchlib.Programs.query ^ ".")
  in
  let uninit_escape, wrong_builtin = Defects.plan_flags ?defect () in
  let absr =
    Absint.analyze ~weakening:(Defects.weakening ?defect ()) ~db:fe.annotated
      ~query_db ~patterns:fe.patterns ~chains:base.chains ()
  in
  { absr; plan = Plan.of_result ~uninit_escape ~wrong_builtin absr }

let variant =
  Some
    ( "bind",
      fun a ~(base : Certification.plans) ->
        { base with bind = Some a.plan.Plan.plan } )

let audit_ok _ = true

let oracle _ ~(base : Certification.compiled)
    ~(variant : Certification.compiled option) buf =
  let bind = Option.get variant in
  Oracle.check ~symbols:base.prog.Wam.Program.symbols
    ~base_code:base.prog.Wam.Program.code
    ~bind_code:bind.prog.Wam.Program.code buf

let violations (o : oracle) = o.violations
let pp_violation = Oracle.pp_violation
let defects = Defects.all
let fixtures = Fixtures.all
let dump fmt a = Facts.pp fmt a.absr.Absint.facts

type report = (t, oracle) Certification.report

let bind (run : oracle Certification.run) = Option.get run.variant

let trail_pair (run : oracle Certification.run) =
  ( Certification.area_refs run.base Trace.Area.Trail,
    Certification.area_refs (bind run) Trace.Area.Trail )

(* Trail references never above baseline at any PE count, and strictly
   below wherever the baseline trails at all. *)
let trail_drop (r : report) =
  let p = r.a.plan in
  (p.n_uninit > 0 || p.n_rigid > 0 || p.n_value_nt > 0 || p.n_nt_builtin > 0)
  && List.for_all
       (fun run ->
         let b, s = trail_pair run in
         s <= b && (b = 0 || s < b))
       r.runs

let summary (r : report) =
  let p = r.a.plan in
  Printf.sprintf
    "sites %-4d certs: %d uninit, %d rigid, %d value_nt, %d builtin_nt%s"
    r.a.absr.n_sites p.n_uninit p.n_rigid p.n_value_nt p.n_nt_builtin
    (if r.a.absr.global_cp_free then " (cp-free)" else "")

let run_summary (run : oracle Certification.run) =
  let b, s = trail_pair run in
  Printf.sprintf
    "%d records, %d site(s), %d window(s); trail %d -> %d, elided %d, deref \
     skipped %d"
    run.base.total_refs run.oracle.sites_checked run.oracle.windows b s
    (bind run).trail_elided (bind run).deref_skipped

let json_fields (r : report) =
  let module J = Obs.Json in
  let p = r.a.plan in
  [
    ("analysis_ms", J.Float r.analysis_ms);
    ("global_cp_free", J.Bool r.a.absr.global_cp_free);
    ("sites_scanned", J.Int r.a.absr.n_sites);
    ("uninit_certs", J.Int p.n_uninit);
    ("rigid_certs", J.Int p.n_rigid);
    ("value_nt_certs", J.Int p.n_value_nt);
    ("nt_builtin_certs", J.Int p.n_nt_builtin);
    ("facts", Facts.json_of_facts r.a.absr.facts);
    ("oracle_ok", J.Bool r.oracle_ok);
    ("answers_ok", J.Bool r.answers_ok);
    ("tracecheck_ok", J.Bool r.trace_ok);
    ("lint_clean", J.Bool r.lint_clean);
    ("trail_drop", J.Bool (trail_drop r));
  ]

let json_run (run : oracle Certification.run) =
  let module J = Obs.Json in
  let v = bind run in
  let base_st = run.base.area_stats and bind_st = v.area_stats in
  let area ar =
    J.Obj
      [
        ("area", J.String (Trace.Area.slug ar));
        ("base_reads", J.Int (Trace.Areastats.reads base_st ar));
        ("base_writes", J.Int (Trace.Areastats.writes base_st ar));
        ("bind_reads", J.Int (Trace.Areastats.reads bind_st ar));
        ("bind_writes", J.Int (Trace.Areastats.writes bind_st ar));
      ]
  in
  [
    ("records", J.Int run.base.total_refs);
    ("oracle_sites", J.Int run.oracle.sites_checked);
    ("oracle_windows", J.Int run.oracle.windows);
    ("oracle_violations", J.Int (List.length run.oracle.violations));
    ("answers_equal", J.Bool run.answers_equal);
    ("tracecheck_violations", J.Int run.trace.n_violations);
    ("base_total_refs", J.Int run.base.total_refs);
    ("bind_total_refs", J.Int v.total_refs);
    ("trail_elided", J.Int v.trail_elided);
    ("deref_skipped", J.Int v.deref_skipped);
    ("areas", J.List (List.map area Trace.Area.all));
  ]
