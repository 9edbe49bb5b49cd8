(* One certification harness for the static analyses that change the
   emulator's reference stream: refmap certifies parcall groups
   race-free, detan elides choice points, bindan elides trail checks.

   An analysis supplies only its domain, as an {!ANALYSIS} module: what
   it computes from the shared front end, the plans its base and
   variant builds compile with, the oracle it replays over the base
   trace, its seeded defects and fixtures, and how it prints.  {!Make}
   owns everything else, once per benchmark:

     1. the front end: parse, groundness patterns, annotation;
     2. the base compile (try chains logged), the analysis, the variant
        compile with the analysis' plan, and wamlint over the variant
        code;
     3. at each PE count the base run and the variant run: answer sets
        must agree, the oracle replays the base trace, and tracecheck
        replays the variant trace (the only trace when the analysis
        has no variant build);
     4. the five verdicts, seeded-defect detection and the JSON
        report. *)

(* ------------------------------------------------------------------ *)
(* Seeded defects.                                                    *)

(* The check a seeded defect must trip. *)
type detector =
  | Oracle  (** the analysis' trace-replay oracle *)
  | Answers  (** base and variant answer sets differ *)
  | Lint  (** wamlint rejects the variant code *)
  | Audit  (** the analysis' static self-audit *)
  | Trace  (** tracecheck flags the variant trace *)

let detector_name = function
  | Oracle -> "oracle"
  | Answers -> "answers"
  | Lint -> "lint"
  | Audit -> "audit"
  | Trace -> "tracecheck"

type defect = {
  name : string;
  detector : detector;
  description : string;
  probes : Benchlib.Programs.benchmark list;
      (** programs the detector fires on when run alone *)
}

(* ------------------------------------------------------------------ *)
(* The shared front end.                                              *)

type front = {
  bench : Benchlib.Programs.benchmark;
  db : Prolog.Database.t;  (** the parsed source *)
  patterns : Prolog.Abspat.t;  (** groundness call patterns *)
  transform : Prolog.Database.t -> Prolog.Database.t;
      (** the annotation every build compiles *)
  annotated : Prolog.Database.t;  (** [transform db] *)
  stats : Prolog.Annotate.stats;  (** the counts of that annotation *)
}

let front (b : Benchlib.Programs.benchmark) =
  let db = Prolog.Database.of_string b.Benchlib.Programs.src in
  let patterns =
    Analysis.Summary.patterns
      (Analysis.Analyze.database
         ~entries:[ Analysis.Analyze.entry_of_string b.Benchlib.Programs.query ]
         db)
  in
  let transform db = Prolog.Annotate.database ~patterns db in
  let annotated, stats = Prolog.Annotate.database_stats ~patterns db in
  { bench = b; db; patterns; transform; annotated; stats }

(* ------------------------------------------------------------------ *)
(* Builds, runs and reports.                                          *)

type plans = {
  det : Wam.Compile.det_plan option;
  bind : Wam.Compile.bind_plan option;
}

let no_plans = { det = None; bind = None }

type compiled = {
  plans : plans;
  prog : Wam.Program.t;
  chains : Wam.Compile.chain_info list;  (** emitted try chains, in order *)
}

(* What a machine run leaves once its trace has been replayed. *)
type side = {
  total_refs : int;
  cp_created : int;
  cp_elided : int;
  trail_elided : int;
  deref_skipped : int;
  area_stats : Trace.Areastats.t;
}

let area_refs side area = Trace.Areastats.refs side.area_stats area

type 'o run = {
  n_pes : int;
  oracle : 'o;  (** over the base trace *)
  answers_equal : bool;  (** base and variant agree (true without one) *)
  trace : Tracecheck.summary;  (** over the variant trace, else the base *)
  base : side;
  variant : side option;
}

type ('a, 'o) report = {
  front : front;
  a : 'a;
  base_build : compiled;
  variant_build : compiled option;
  lint : Wam.Wamlint.diag list;  (** over the variant code *)
  analysis_ms : float;  (** compiles, analysis and lint *)
  runs : 'o run list;
  oracle_ok : bool;
  answers_ok : bool;
  trace_ok : bool;
  lint_clean : bool;
  audit_ok : bool;
}

let clean r =
  r.oracle_ok && r.answers_ok && r.trace_ok && r.lint_clean && r.audit_ok

let flagged (d : defect) r =
  match d.detector with
  | Oracle -> not r.oracle_ok
  | Answers -> not r.answers_ok
  | Lint -> not r.lint_clean
  | Audit -> not r.audit_ok
  | Trace -> not r.trace_ok

module type ANALYSIS = sig
  val name : string  (** the [--analysis] name and the BENCH file stem *)

  val doc : string

  type t  (** what the analysis derived for one benchmark *)

  type oracle  (** the oracle's verdict over one base trace *)

  type violation

  val base_plans : front -> plans

  val analyze : ?defect:defect -> front -> base:compiled -> t
  (** [defect] weakens the analysis first. *)

  val variant : (string * (t -> base:plans -> plans)) option
  (** The variant build's label ("det", "bind") and its plans; [None]
      runs the base build alone. *)

  val audit_ok : t -> bool

  val oracle :
    t -> base:compiled -> variant:compiled option ->
    Trace.Sink.Buffer_sink.t -> oracle

  val violations : oracle -> violation list
  val pp_violation : Format.formatter -> violation -> unit
  val defects : defect list

  val fixtures : Benchlib.Programs.benchmark list
  (** Programs beyond the paper's benchmarks the CLI pool includes. *)

  val dump : Format.formatter -> t -> unit
  (** The per-predicate facts [--dump] prints. *)

  val summary : (t, oracle) report -> string
  val run_summary : oracle run -> string

  val json_fields : (t, oracle) report -> (string * Obs.Json.t) list
  (** The report's fields between ["bench"] and ["runs"]. *)

  val json_run : oracle run -> (string * Obs.Json.t) list
  (** A run's fields after ["pes"]. *)
end

let default_pes = [ 1; 4; 8 ]

module Make (A : ANALYSIS) = struct
  let build fe plans =
    let chains = ref [] in
    let prog =
      Benchlib.Runner.prepare ~parallel:true ?det:plans.det ?bind:plans.bind
        ~chains ~transform:fe.transform fe.bench
    in
    { plans; prog; chains = List.rev !chains }

  let machine fe plans n_pes =
    Benchlib.Runner.run_rapwam ~keep_trace:true ?det:plans.det ?bind:plans.bind
      ~transform:fe.transform ~n_pes fe.bench

  let side (r : Benchlib.Runner.result) =
    {
      total_refs = r.total_refs;
      cp_created = r.cp_created;
      cp_elided = r.cp_elided;
      trail_elided = r.trail_elided;
      deref_skipped = r.deref_skipped;
      area_stats = r.area_stats;
    }

  (* [observe] sees both traces of every PE count before they are
     dropped (the experiments price them through the cache
     simulator). *)
  let run ?defect ?(pes = default_pes) ?observe b =
    let fe = front b in
    let t0 = Unix.gettimeofday () in
    let base_build = build fe (A.base_plans fe) in
    let a = A.analyze ?defect fe ~base:base_build in
    let variant_build =
      Option.map
        (fun (_, plans) -> build fe (plans a ~base:base_build.plans))
        A.variant
    in
    let lint =
      match variant_build with
      | Some v -> Wam.Wamlint.check_program v.prog
      | None -> []
    in
    let analysis_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let one n_pes =
      let base = machine fe base_build.plans n_pes in
      let variant =
        Option.map (fun v -> machine fe v.plans n_pes) variant_build
      in
      let checked, answers_equal =
        match variant with
        | Some v -> (v, Benchlib.Runner.answers_agree base v)
        | None -> (base, true)
      in
      let trace (r : Benchlib.Runner.result) = r.trace in
      Option.iter
        (fun f -> f ~n_pes ~base:base.trace ~variant:(Option.map trace variant))
        observe;
      {
        n_pes;
        oracle = A.oracle a ~base:base_build ~variant:variant_build base.trace;
        answers_equal;
        trace = Tracecheck.check_buffer checked.trace;
        base = side base;
        variant = Option.map side variant;
      }
    in
    let runs = List.map one (List.sort_uniq compare pes) in
    {
      front = fe;
      a;
      base_build;
      variant_build;
      lint;
      analysis_ms;
      runs;
      oracle_ok = List.for_all (fun r -> A.violations r.oracle = []) runs;
      answers_ok = List.for_all (fun r -> r.answers_equal) runs;
      trace_ok = List.for_all (fun r -> Tracecheck.ok r.trace) runs;
      lint_clean = lint = [];
      audit_ok = A.audit_ok a;
    }

  (* The static half alone: front end, builds, analysis and lint. *)
  let analyze ?defect b = run ?defect ~pes:[] b

  let find_defect name =
    List.find_opt (fun (d : defect) -> d.name = name) A.defects

  (* A defect run covers the selection plus the defect's probes. *)
  let with_probes (d : defect) benchmarks =
    let selected (p : Benchlib.Programs.benchmark) =
      List.exists
        (fun (b : Benchlib.Programs.benchmark) ->
          b.Benchlib.Programs.name = p.Benchlib.Programs.name)
        benchmarks
    in
    benchmarks @ List.filter (fun p -> not (selected p)) d.probes

  let verdict r =
    match
      List.filter_map
        (fun (ok, what) -> if ok then None else Some what)
        [
          (r.oracle_ok, "ORACLE VIOLATIONS");
          (r.answers_ok, "ANSWERS DIFFER");
          (r.trace_ok, "TRACE DIRTY");
          (r.lint_clean, "LINT DIRTY");
          (r.audit_ok, "AUDIT FAILED");
        ]
    with
    | [] -> "clean"
    | bad -> String.concat ", " bad

  let pp_report ~verbose fmt r =
    Format.fprintf fmt "%-12s %s  %s@." r.front.bench.Benchlib.Programs.name
      (A.summary r) (verdict r);
    List.iter
      (fun run ->
        let vs = A.violations run.oracle in
        Format.fprintf fmt "  %dpe: %s; %d violation(s), tracecheck %s@."
          run.n_pes (A.run_summary run) (List.length vs)
          (if Tracecheck.ok run.trace then "clean"
           else Printf.sprintf "%d violation(s)" run.trace.n_violations);
        List.iteri
          (fun i v ->
            if i < 8 || verbose then
              Format.fprintf fmt "    %a@." A.pp_violation v)
          vs)
      r.runs;
    List.iter
      (fun d -> Format.fprintf fmt "    %a@." Wam.Wamlint.pp_diag d)
      r.lint;
    if verbose then Format.fprintf fmt "%a" A.dump r.a

  let json_of_report r =
    let run run =
      Obs.Json.Obj (("pes", Obs.Json.Int run.n_pes) :: A.json_run run)
    in
    Obs.Json.Obj
      ((("bench", Obs.Json.String r.front.bench.Benchlib.Programs.name)
        :: A.json_fields r)
      @ [ ("runs", Obs.Json.List (List.map run r.runs)) ])

  let json_of_reports rs = Obs.Json.List (List.map json_of_report rs)
end
