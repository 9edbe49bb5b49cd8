(* Whole-benchmark determinacy pipeline.

   Per benchmark:
     1. global groundness analysis seeds call patterns (the same
        analysis the annotator consumes);
     2. the success-count fixpoint ({!Counts}) grades every predicate
        on the lattice, and the exclusion test ({!Exclusion}) builds
        the compiler plan -- weakened first when a defect is seeded;
     3. the program is compiled twice: baseline (no plan, chains
        logged) and det (plan applied, choice points elided); wamlint
        verifies the det code, including its chain shapes;
     4. at each PE count both versions run; answer sets must agree,
        and the {!Oracle} replays the baseline trace checking that no
        elided alternative was ever needed;
     5. per-area reference counts of both runs quantify what the
        elision bought (choice-point and trail traffic). *)

type key = string * int

type elision = {
  chains_total : int;  (** multi-alternative chains emitted (det compile) *)
  chains_det : int;  (** of which choice-point free *)
  dead_var_chains : int;  (** variable-dispatch chains pruned to fail *)
  per_pred : (key * (int * int)) list;  (** pred -> (chains, det chains) *)
}

type analysis = {
  bench : Benchlib.Programs.benchmark;
  patterns : Prolog.Abspat.t;
  transform : Prolog.Database.t -> Prolog.Database.t;
  plan : Wam.Compile.det_plan;
  counts : (key * Lattice.t) list;  (** success-count grade per predicate *)
  det_preds : int;  (** predicates graded deterministic (<> Multi) *)
  det_arms : int;
      (** parcall arms whose predicate the lattice grades deterministic
          (annotator tally: no redo can re-enter such arms, so the
          parcall skips their marker bookkeeping) *)
  base_prog : Wam.Program.t;
  base_chains : Wam.Compile.chain_info list;
  certified : Wam.Compile.chain_info list;
      (** baseline chains the plan certifies (the oracle's watch list) *)
  dead : Wam.Compile.chain_info list;
      (** baseline variable chains the plan prunes (must never run) *)
  det_chains : Wam.Compile.chain_info list;
  elision : elision;
  lint_diags : Wam.Wamlint.diag list;  (** wamlint over the det code *)
  analysis_ms : float;
}

type pe_run = {
  n_pes : int;
  records : int;  (** baseline trace length *)
  oracle : Oracle.report;
  answers_equal : bool;
  base_cp_reads : int;
  base_cp_writes : int;
  det_cp_reads : int;
  det_cp_writes : int;
  base_trail_reads : int;
  base_trail_writes : int;
  det_trail_reads : int;
  det_trail_writes : int;
  base_total_refs : int;
  det_total_refs : int;
  det_cp_created : int;  (** try executions left in the det build *)
  det_cp_elided : int;  (** shallow try executions *)
}

type report = {
  a : analysis;
  runs : pe_run list;
  oracle_ok : bool;
  answers_ok : bool;
  lint_clean : bool;
  cp_drop : bool;
      (** choice-point references strictly below baseline at every PE
          count (expected whenever anything was certified) *)
  trail_drop : bool;  (** same for trail references (non-strict) *)
}

let analyze ?defect (b : Benchlib.Programs.benchmark) =
  let db = Prolog.Database.of_string b.Benchlib.Programs.src in
  let summary =
    Analysis.Analyze.database
      ~entries:[ Analysis.Analyze.entry_of_string b.Benchlib.Programs.query ]
      db
  in
  let patterns = Analysis.Summary.patterns summary in
  let transform db = Prolog.Annotate.database ~patterns db in
  let t0 = Unix.gettimeofday () in
  let plan = Defects.plan ?defect ~patterns () in
  let counts_tbl = Counts.of_database ~patterns (transform db) in
  let counts = Counts.report (transform db) counts_tbl in
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
    let _, stats = Prolog.Annotate.database_stats ~patterns ~determinacy db in
    stats.Prolog.Annotate.det_arms
  in
  let base_ref = ref [] in
  let base_prog =
    Benchlib.Runner.prepare ~parallel:true ~chains:base_ref ~transform b
  in
  let det_ref = ref [] in
  let det_prog =
    Benchlib.Runner.prepare ~parallel:true ~det:plan ~chains:det_ref ~transform
      b
  in
  let lint_diags = Wam.Wamlint.check_program det_prog in
  let base_chains = List.rev !base_ref in
  let det_chains = List.rev !det_ref in
  (* Re-derive the certificate for each baseline chain: compilation is
     deterministic, so these are the same (pred, bucket, clauses)
     triples the det compile decided on, at baseline addresses. *)
  let clauses_of (ci : Wam.Compile.chain_info) =
    let arr =
      Array.of_list
        (Prolog.Database.clauses base_prog.Wam.Program.db ci.ci_pred)
    in
    List.map (fun i -> arr.(i)) ci.ci_clauses
  in
  let is_dead (ci : Wam.Compile.chain_info) =
    ci.ci_bucket = "var" && plan.Wam.Compile.det_dead_var ci.ci_pred
  in
  let dead = List.filter is_dead base_chains in
  let certified =
    List.filter
      (fun (ci : Wam.Compile.chain_info) ->
        (not (is_dead ci))
        && snd ci.ci_pred < 256
        && plan.Wam.Compile.det_certify ~db:base_prog.Wam.Program.db
             ~pred:ci.ci_pred ~bucket:ci.ci_bucket (clauses_of ci))
      base_chains
  in
  let per_pred =
    List.fold_left
      (fun acc (ci : Wam.Compile.chain_info) ->
        let t, d =
          match List.assoc_opt ci.ci_pred acc with
          | Some td -> td
          | None -> (0, 0)
        in
        (ci.ci_pred, (t + 1, d + if ci.ci_det then 1 else 0))
        :: List.remove_assoc ci.ci_pred acc)
      [] det_chains
    |> List.sort compare
  in
  let elision =
    {
      chains_total = List.length det_chains;
      chains_det =
        List.length
          (List.filter (fun (ci : Wam.Compile.chain_info) -> ci.ci_det) det_chains);
      dead_var_chains = List.length dead;
      per_pred;
    }
  in
  let analysis_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  {
    bench = b;
    patterns;
    transform;
    plan;
    counts;
    det_preds;
    det_arms;
    base_prog;
    base_chains;
    certified;
    dead;
    det_chains;
    elision;
    lint_diags;
    analysis_ms;
  }

let default_pes = [ 1; 4; 8 ]

let run ?defect ?(pes = default_pes) b =
  let a = analyze ?defect b in
  let pes = List.sort_uniq compare pes in
  let area r ar =
    ( Trace.Areastats.reads r.Benchlib.Runner.area_stats ar,
      Trace.Areastats.writes r.Benchlib.Runner.area_stats ar )
  in
  let runs =
    List.map
      (fun n_pes ->
        let base =
          Benchlib.Runner.run_rapwam ~keep_trace:true ~transform:a.transform
            ~n_pes b
        in
        let det =
          Benchlib.Runner.run_rapwam ~keep_trace:true ~transform:a.transform
            ~det:a.plan ~n_pes b
        in
        let oracle =
          Oracle.check ~code:a.base_prog.Wam.Program.code ~chains:a.certified
            ~dead:a.dead base.Benchlib.Runner.trace
        in
        let bcp_r, bcp_w = area base Trace.Area.Choice_point in
        let dcp_r, dcp_w = area det Trace.Area.Choice_point in
        let btr_r, btr_w = area base Trace.Area.Trail in
        let dtr_r, dtr_w = area det Trace.Area.Trail in
        {
          n_pes;
          records = base.Benchlib.Runner.total_refs;
          oracle;
          answers_equal = Benchlib.Runner.answers_agree base det;
          base_cp_reads = bcp_r;
          base_cp_writes = bcp_w;
          det_cp_reads = dcp_r;
          det_cp_writes = dcp_w;
          base_trail_reads = btr_r;
          base_trail_writes = btr_w;
          det_trail_reads = dtr_r;
          det_trail_writes = dtr_w;
          base_total_refs = base.Benchlib.Runner.total_refs;
          det_total_refs = det.Benchlib.Runner.total_refs;
          det_cp_created = det.Benchlib.Runner.cp_created;
          det_cp_elided = det.Benchlib.Runner.cp_elided;
        })
      pes
  in
  let certified_any = a.certified <> [] || a.dead <> [] in
  {
    a;
    runs;
    oracle_ok =
      List.for_all (fun r -> r.oracle.Oracle.violations = []) runs;
    answers_ok = List.for_all (fun r -> r.answers_equal) runs;
    lint_clean = a.lint_diags = [];
    cp_drop =
      certified_any
      && List.for_all
           (fun r ->
             r.det_cp_reads + r.det_cp_writes
             < r.base_cp_reads + r.base_cp_writes)
           runs;
    trail_drop =
      certified_any
      && List.for_all
           (fun r ->
             r.det_trail_reads + r.det_trail_writes
             <= r.base_trail_reads + r.base_trail_writes)
           runs;
  }

(* A seeded defect is detected when its designated detector fires on
   at least one probed program. *)
let defect_detected ~(defect : Defects.t) reports =
  let flagged r =
    match defect.Defects.detector with
    | "oracle" -> not r.oracle_ok
    | "answers" -> not r.answers_ok
    | "lint" -> not r.lint_clean
    | other -> invalid_arg ("Detan.Driver.defect_detected: " ^ other)
  in
  List.exists flagged reports

(* ------------------------------------------------------------------ *)
(* JSON.                                                              *)

let json_of_report r =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "{\"bench\": %S, \"analysis_ms\": %.3f, \"preds\": %d, \"det_preds\": %d, \
     \"det_arms\": %d"
    r.a.bench.Benchlib.Programs.name r.a.analysis_ms
    (List.length r.a.counts)
    r.a.det_preds r.a.det_arms;
  Printf.bprintf b
    ", \"chains_total\": %d, \"chains_det\": %d, \"dead_var_chains\": %d, \
     \"certified_chains\": %d"
    r.a.elision.chains_total r.a.elision.chains_det
    r.a.elision.dead_var_chains
    (List.length r.a.certified);
  Buffer.add_string b ", \"elision\": [";
  List.iteri
    (fun i ((name, arity), (t, d)) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "{\"pred\": \"%s/%d\", \"chains\": %d, \"det\": %d}"
        name arity t d)
    r.a.elision.per_pred;
  Printf.bprintf b
    "], \"oracle_ok\": %b, \"answers_ok\": %b, \"lint_clean\": %b, \
     \"cp_drop\": %b, \"trail_drop\": %b, \"runs\": ["
    r.oracle_ok r.answers_ok r.lint_clean r.cp_drop r.trail_drop;
  List.iteri
    (fun i run ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b
        "{\"pes\": %d, \"records\": %d, \"oracle_violations\": %d, \
         \"oracle_trials\": %d, \"answers_equal\": %b, \"base_cp_refs\": %d, \
         \"det_cp_refs\": %d, \"base_trail_refs\": %d, \"det_trail_refs\": \
         %d, \"base_total_refs\": %d, \"det_total_refs\": %d, \
         \"det_cp_created\": %d, \"det_cp_elided\": %d}"
        run.n_pes run.records
        (List.length run.oracle.Oracle.violations)
        run.oracle.Oracle.trials run.answers_equal
        (run.base_cp_reads + run.base_cp_writes)
        (run.det_cp_reads + run.det_cp_writes)
        (run.base_trail_reads + run.base_trail_writes)
        (run.det_trail_reads + run.det_trail_writes)
        run.base_total_refs run.det_total_refs run.det_cp_created
        run.det_cp_elided)
    r.runs;
  Buffer.add_string b "]}";
  Buffer.contents b

let json_of_reports rs =
  "[\n  " ^ String.concat ",\n  " (List.map json_of_report rs) ^ "\n]\n"
