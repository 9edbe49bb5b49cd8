(* The static front end a benchmark program goes through before it
   runs: parse, groundness analysis, the determinacy plan (applied
   while compiling), the binding analysis and plan, the cost analysis,
   and a plain compile.  The plans are built exactly as
   [bin/rapwam_run --bind] builds them.  Every step is a span, and the
   step times come back for the per-layer metrics. *)

type times = {
  parse_s : float;
  analysis_s : float;
  detan_s : float;  (** compile with the determinacy plan, chains logged *)
  bindan_s : float;
  costan_s : float;
  compile_s : float;  (** compile with no plan *)
}

type t = {
  det : Wam.Compile.det_plan;
  bind : Wam.Compile.bind_plan;
  times : times;
}

let span = Spans.with_

let timed name f =
  let t0 = Measure.now () in
  let r = span name f in
  (r, Measure.now () -. t0)

let parse src = span "prolog.parse" (fun () -> Prolog.Database.of_string src)

let run (b : Benchlib.Programs.benchmark) =
  let src = b.Benchlib.Programs.src and query = b.Benchlib.Programs.query in
  let db, parse_s = timed "prolog.parse" (fun () -> Prolog.Database.of_string src) in
  let patterns, analysis_s =
    timed "analysis.database" (fun () ->
        Analysis.Summary.patterns
          (Analysis.Analyze.database ~entries:[ Analysis.Analyze.entry_of_string query ] db))
  in
  let det = Detan.Exclusion.plan ~patterns () in
  let chains = ref [] in
  let det_db = parse src in
  let (_ : Wam.Program.t), detan_s =
    timed "detan.compile" (fun () ->
        Wam.Program.of_database ~parallel:true ~det ~chains det_db ~query ())
  in
  let bind, bindan_s =
    timed "bindan.analyze" (fun () ->
        let query_db = Prolog.Database.of_string ("'$bindan_query' :- " ^ query ^ ".") in
        let r =
          Bindan.Absint.analyze ~db ~query_db ~patterns ~chains:(List.rev !chains) ()
        in
        (Bindan.Plan.of_result r).Bindan.Plan.plan)
  in
  let (_ : Costan.Analyze.t), costan_s =
    timed "costan.analyze" (fun () -> Costan.Analyze.analyze db)
  in
  let plain_db = parse src in
  let (_ : Wam.Program.t), compile_s =
    timed "wam.compile" (fun () -> Wam.Program.of_database ~parallel:true plain_db ~query ())
  in
  { det; bind; times = { parse_s; analysis_s; detan_s; bindan_s; costan_s; compile_s } }
