(* detan as a certification instance.

   The success-count fixpoint ({!Counts}) grades every predicate on the
   lattice and the exclusion test ({!Exclusion}) builds the compiler
   plan, weakened first when a defect is seeded.  The base build
   compiles without a plan, the "det" variant with it: certified chains
   go choice-point free.  The {!Oracle} replays the base trace checking
   that no elided alternative was ever needed; the per-area counts of
   both runs quantify what the elision bought (choice-point and trail
   traffic). *)

let name = "detan"

let doc =
  "determinacy-driven choice-point elision: success-count lattice, \
   shallow-backtracking compile and the trace-replay oracle"

type key = string * int

type t = {
  plan : Wam.Compile.det_plan;
  counts : (key * Lattice.t) list;  (** success-count grade per predicate *)
  det_preds : int;  (** predicates graded deterministic (<> Multi) *)
  det_arms : int;
      (** parcall arms whose predicate the lattice grades deterministic
          (annotator tally: no redo can re-enter such arms, so the
          parcall skips their marker bookkeeping) *)
  certified : Wam.Compile.chain_info list;
      (** base chains the plan certifies (the oracle's watch list) *)
  dead : Wam.Compile.chain_info list;
      (** base variable chains the plan prunes (must never run) *)
}

type oracle = Oracle.report
type violation = Oracle.violation

let base_plans _ = Certification.no_plans

let analyze ?defect (fe : Certification.front) ~(base : Certification.compiled)
    =
  let patterns = fe.patterns in
  let plan = Defects.plan ?defect ~patterns () in
  let counts =
    Counts.report fe.annotated (Counts.of_database ~patterns fe.annotated)
  in
  let det_preds =
    List.length (List.filter (fun (_, c) -> Lattice.deterministic c) counts)
  in
  let det_arms =
    (* score the annotation's parcall arms against the lattice: an arm
       graded deterministic ({1}, {0,1} or {0}) has no second solution,
       so backtracking never re-enters it and the parcall can skip its
       marker bookkeeping (a failing arm fails the whole CGE) *)
    let determinacy key =
      match List.assoc_opt key counts with
      | Some c -> Lattice.deterministic c
      | None -> false
    in
    let _, stats = Prolog.Annotate.database_stats ~patterns ~determinacy fe.db in
    stats.Prolog.Annotate.det_arms
  in
  (* Re-derive the certificate for each base chain: compilation is
     deterministic, so these are the same (pred, bucket, clauses)
     triples the det compile decides on, at base addresses. *)
  let db = base.prog.Wam.Program.db in
  let clauses_of (ci : Wam.Compile.chain_info) =
    let arr = Array.of_list (Prolog.Database.clauses db ci.ci_pred) in
    List.map (fun i -> arr.(i)) ci.ci_clauses
  in
  let is_dead (ci : Wam.Compile.chain_info) =
    ci.ci_bucket = "var" && plan.Wam.Compile.det_dead_var ci.ci_pred
  in
  let certified =
    List.filter
      (fun (ci : Wam.Compile.chain_info) ->
        (not (is_dead ci))
        && snd ci.ci_pred < 256
        && plan.Wam.Compile.det_certify ~db ~pred:ci.ci_pred
             ~bucket:ci.ci_bucket (clauses_of ci))
      base.chains
  in
  let dead = List.filter is_dead base.chains in
  { plan; counts; det_preds; det_arms; certified; dead }

let variant =
  Some ("det", fun a ~base:_ -> { Certification.no_plans with det = Some a.plan })

let audit_ok _ = true

let oracle a ~(base : Certification.compiled) ~variant:_ buf =
  Oracle.check ~code:base.prog.Wam.Program.code ~chains:a.certified
    ~dead:a.dead buf

let violations (o : oracle) = o.violations
let pp_violation = Oracle.pp_violation
let defects = Defects.all
let fixtures = Fixtures.all

let dump fmt a =
  List.iter
    (fun ((name, arity), c) ->
      Format.fprintf fmt "  %-24s %s@."
        (Printf.sprintf "%s/%d" name arity)
        (Lattice.to_string c))
    a.counts

(* ---- what the elision bought ---- *)

type elision = {
  chains_total : int;  (** multi-alternative chains emitted (det compile) *)
  chains_det : int;  (** of which choice-point free *)
  dead_var_chains : int;  (** variable-dispatch chains pruned to fail *)
  per_pred : (key * (int * int)) list;  (** pred -> (chains, det chains) *)
}

type report = (t, oracle) Certification.report

let elision (r : report) =
  let det_chains =
    match r.variant_build with Some v -> v.chains | None -> []
  in
  let per_pred =
    List.fold_left
      (fun acc (ci : Wam.Compile.chain_info) ->
        let t, d = Option.value (List.assoc_opt ci.ci_pred acc) ~default:(0, 0) in
        (ci.ci_pred, (t + 1, d + if ci.ci_det then 1 else 0))
        :: List.remove_assoc ci.ci_pred acc)
      [] det_chains
    |> List.sort compare
  in
  {
    chains_total = List.length det_chains;
    chains_det =
      List.length
        (List.filter (fun (ci : Wam.Compile.chain_info) -> ci.ci_det) det_chains);
    dead_var_chains = List.length r.a.dead;
    per_pred;
  }

let det (run : oracle Certification.run) = Option.get run.variant

let area_pair (run : oracle Certification.run) area =
  (Certification.area_refs run.base area, Certification.area_refs (det run) area)

(* Choice-point references strictly below baseline at every PE count
   (expected whenever anything was certified); trail references never
   above it. *)
let cp_drop (r : report) =
  (r.a.certified <> [] || r.a.dead <> [])
  && List.for_all
       (fun run ->
         let b, d = area_pair run Trace.Area.Choice_point in
         d < b)
       r.runs

let trail_drop (r : report) =
  (r.a.certified <> [] || r.a.dead <> [])
  && List.for_all
       (fun run ->
         let b, d = area_pair run Trace.Area.Trail in
         d <= b)
       r.runs

let summary (r : report) =
  let el = elision r in
  Printf.sprintf "preds %d (det %d, %d det arms)  chains %d/%d det, %d var-pruned"
    (List.length r.a.counts) r.a.det_preds r.a.det_arms el.chains_det
    el.chains_total el.dead_var_chains

let run_summary (run : oracle Certification.run) =
  let cb, cd = area_pair run Trace.Area.Choice_point in
  let tb, td = area_pair run Trace.Area.Trail in
  Printf.sprintf "%d records, %d trial(s); cp %d -> %d, trail %d -> %d, elided %d"
    run.base.total_refs run.oracle.trials cb cd tb td (det run).cp_elided

let json_fields (r : report) =
  let el = elision r in
  Printf.sprintf
    "\"analysis_ms\": %.3f, \"preds\": %d, \"det_preds\": %d, \"det_arms\": \
     %d, \"chains_total\": %d, \"chains_det\": %d, \"dead_var_chains\": %d, \
     \"certified_chains\": %d, \"elision\": [%s], \"oracle_ok\": %b, \
     \"answers_ok\": %b, \"lint_clean\": %b, \"cp_drop\": %b, \"trail_drop\": \
     %b, \"tracecheck_ok\": %b"
    r.analysis_ms (List.length r.a.counts) r.a.det_preds r.a.det_arms
    el.chains_total el.chains_det el.dead_var_chains
    (List.length r.a.certified)
    (String.concat ", "
       (List.map
          (fun ((name, arity), (t, d)) ->
            Printf.sprintf "{\"pred\": \"%s/%d\", \"chains\": %d, \"det\": %d}"
              name arity t d)
          el.per_pred))
    r.oracle_ok r.answers_ok r.lint_clean (cp_drop r) (trail_drop r) r.trace_ok

let json_run (run : oracle Certification.run) =
  let cb, cd = area_pair run Trace.Area.Choice_point in
  let tb, td = area_pair run Trace.Area.Trail in
  Printf.sprintf
    "\"records\": %d, \"oracle_violations\": %d, \"oracle_trials\": %d, \
     \"answers_equal\": %b, \"base_cp_refs\": %d, \"det_cp_refs\": %d, \
     \"base_trail_refs\": %d, \"det_trail_refs\": %d, \"base_total_refs\": %d, \
     \"det_total_refs\": %d, \"det_cp_created\": %d, \"det_cp_elided\": %d"
    run.base.total_refs
    (List.length run.oracle.violations)
    run.oracle.trials run.answers_equal cb cd tb td run.base.total_refs
    (det run).total_refs (det run).cp_created (det run).cp_elided
