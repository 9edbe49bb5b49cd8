(* trace-gen: emulation only, no cache simulation.  A pass (round) runs
   the 4 programs under 5 configurations -- the sequential WAM, RAP-WAM
   at 1, 4 and 8 PEs, and RAP-WAM at 8 PEs compiled with the
   determinacy and binding plans -- each into a retained packed trace.
   One emulation is this workload's request; operations are emitted
   references.  After each run (outside the timed region) the trace is
   digested and dropped, and the answer is checked against the oracle
   and the sequential WAM. *)

type config = Seq | Rap of int | Rap_planned

let configs = [ Seq; Rap 1; Rap 4; Rap 8; Rap_planned ]

let config_name = function
  | Seq -> "wam"
  | Rap n -> Printf.sprintf "rapwam-%dpe" n
  | Rap_planned -> "rapwam-8pe-det-bind"

let emulate (fe : Frontend.t) b = function
  | Seq -> Benchlib.Runner.run_wam b
  | Rap n -> Benchlib.Runner.run_rapwam ~n_pes:n b
  | Rap_planned ->
    Benchlib.Runner.run_rapwam ~det:fe.Frontend.det ~bind:fe.Frontend.bind ~n_pes:8 b

let run (ctx : Run.ctx) : Run.outcome =
  let benches = Seeded.benchmarks ~smoke:ctx.Run.smoke ~seed:ctx.Run.seed in
  let tally = Oracle.tally () in
  let latencies = ref [] and ops = ref 0. in
  let digests : (string, string) Hashtbl.t = Hashtbl.create 32 in
  let reference = if ctx.Run.seed = 0 && not ctx.Run.smoke then Reference.traces else [] in
  let check b config seq (r : Benchlib.Runner.result) =
    let name = b.Benchlib.Programs.name ^ "/" ^ config_name config in
    let d = Measure.trace_digest r.Benchlib.Runner.trace in
    let same_as_before =
      match Hashtbl.find_opt digests name with
      | Some first -> first = d
      | None -> Hashtbl.replace digests name d; true
    in
    let matches_reference =
      match List.assoc_opt name reference with Some want -> want = d | None -> reference = []
    in
    let agrees = match seq with Some s -> Benchlib.Runner.answers_agree r s | None -> true in
    let problem =
      if not same_as_before then Some ("digest " ^ d ^ " changed between rounds")
      else if not matches_reference then Some ("digest " ^ d ^ " differs from the reference")
      else if not agrees then Some "answer differs from the sequential WAM's"
      else if Trace.Areastats.total r.Benchlib.Runner.area_stats <> Measure.accesses r.Benchlib.Runner.trace
      then Some "area totals differ from the trace"
      else if
        not
          (Oracle.check_run b.Benchlib.Programs.query ~succeeded:r.Benchlib.Runner.succeeded
             ~answer:r.Benchlib.Runner.answer)
      then Some "answer differs from the oracle"
      else None
    in
    Oracle.record tally (problem = None) (fun () ->
        Printf.sprintf "trace-gen %s: %s" name (Option.get problem))
  in
  let pass work ~traced =
    let wall = ref 0. in
    List.iter
      (fun (b, fe) ->
        let seq = ref None in
        List.iter
          (fun config ->
            let attrs = [ ("bench", b.Benchlib.Programs.name); ("config", config_name config) ] in
            let layer = if config = Seq then "wam.run_wam" else "rapwam.run_rapwam" in
            let r, t =
              Measure.time (fun () ->
                  Spans.with_ ~attrs layer
                    ~counts:(fun r ->
                      [ ("refs", r.Benchlib.Runner.total_refs);
                        ("instructions", r.Benchlib.Runner.instructions) ])
                    (fun () -> emulate fe b config))
            in
            wall := !wall +. t;
            if not traced then begin
              latencies := t :: !latencies;
              ops := !ops +. float_of_int r.Benchlib.Runner.total_refs
            end;
            Spans.with_ ~attrs "bench.check" (fun () -> check b config !seq r);
            if config = Seq then seq := Some r)
          configs)
      work;
    !wall
  in
  (* set-up: the static front end, then one round to warm the runtime *)
  let work, setup_s =
    Run.setups (fun () ->
        let work = List.combine benches (List.map Frontend.run benches) in
        ignore (pass work ~traced:false);
        work)
  in
  latencies := [];
  ops := 0.;
  let pass_s, traced_s = Run.passes ctx ~fixed:8 (pass work) in
  let lines =
    List.sort compare (Hashtbl.fold (fun k d acc -> Printf.sprintf "trace %s %s" k d :: acc) digests [])
  in
  {
    Run.setup_s;
    pass_s;
    traced_s;
    ops = !ops;
    op = "emitted reference";
    latency_s = Array.of_list (List.rev !latencies);
    request = "one emulation";
    tally;
    digest =
      Digest.to_hex (Digest.string (String.concat "\n" lines));
    lines;
    ledger = Ledger.of_benchmarks benches;
    stream = Ledger.stream ();
  }
