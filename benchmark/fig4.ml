(* fig4-sweep: the paper's Figure-4 grid through the sweep engine with
   one domain.  4 programs x PEs {1,2,4,8} x {write-in broadcast,
   hybrid, write-through} x cache sizes 64..8192 words, 4-word lines,
   the better allocation policy per point.

   A pass is the whole grid, and this workload's request: one
   [Engine.Sweep.run ~jobs:1] per (program, PE count) trace, each
   generating that trace and simulating its 24 cells.  Operations are
   simulated references.  The traced pass generates the
   same traces through [Benchlib.Runner.run_rapwam] spans and runs the
   cells one at a time through [Cachesim.Multi.simulate_best] spans;
   its cells must digest the same as the engine's. *)

let pe_counts = [ 1; 2; 4; 8 ]

let protocols =
  Cachesim.Protocol.[ Write_in_broadcast; Hybrid; Write_through ]

let sizes ~smoke =
  if smoke then [ 256 ] else [ 64; 128; 256; 512; 1024; 2048; 4096; 8192 ]

let line_words = 4

let slice ~smoke b n =
  {
    Engine.Sweep.benchmarks = [ b ];
    pe_counts = [ n ];
    protocols;
    cache_sizes = sizes ~smoke;
    line_words;
    alloc = Engine.Sweep.Best;
  }

(* Digest of a grid's cell statistics: every cell's key and its ten
   counters, in configuration order. *)
let cells_digest cells =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun (c : Engine.Results.cell) ->
               match c.Engine.Results.metrics with
               | Ok m ->
                 Engine.Results.encode_cell (Engine.Results.config_key c.Engine.Results.config) m
               | Error e -> "error " ^ e)
             (Engine.Results.sort cells))))

(* Per-cell invariants: the simulator saw every access of its trace,
   and the traffic ratio is a non-negative number. *)
let cell_ok ~accesses (c : Engine.Results.cell) =
  match c.Engine.Results.metrics with
  | Error _ -> false
  | Ok m ->
    let cfg = c.Engine.Results.config in
    Cachesim.Metrics.refs m = accesses (cfg.Engine.Results.bench, cfg.Engine.Results.n_pes)
    && Float.is_finite (Cachesim.Metrics.traffic_ratio m)
    && Cachesim.Metrics.traffic_ratio m >= 0.

let area_accesses (o : Engine.Sweep.outcome) key =
  match List.assoc_opt key o.Engine.Sweep.areas with
  | Some rows -> List.fold_left (fun acc (_, (r, w)) -> acc + r + w) 0 rows
  | None -> -1

let run (ctx : Run.ctx) : Run.outcome =
  let benches = Seeded.benchmarks ~smoke:ctx.Run.smoke ~seed:ctx.Run.seed in
  let tally = Oracle.tally () in
  let ops = ref 0. in
  let overhead_s = ref 0. in
  let digests = ref [] in
  let check_digest d n_cells =
    if (not ctx.Run.smoke) && ctx.Run.seed = 0 && d <> Reference.fig4 then
      Oracle.condemn tally n_cells (Printf.sprintf "fig4 grid digest %s, reference %s" d Reference.fig4);
    (match !digests with
    | first :: _ when first <> d ->
      Oracle.condemn tally n_cells (Printf.sprintf "fig4 grid digest %s differs from %s" d first)
    | _ -> ());
    digests := d :: !digests
  in
  let engine_pass () =
    let cells = ref [] and wall = ref 0. in
    List.iter
      (fun b ->
        List.iter
          (fun n ->
            let o, t = Measure.time (fun () -> Engine.Sweep.run ~jobs:1 (slice ~smoke:ctx.Run.smoke b n)) in
            wall := !wall +. t;
            overhead_s := !overhead_s +. Ledger.engine_overhead o;
            List.iter
              (fun c ->
                Oracle.record tally (cell_ok ~accesses:(area_accesses o) c) (fun () ->
                    "fig4 cell " ^ Engine.Results.config_key c.Engine.Results.config);
                match c.Engine.Results.metrics with
                | Ok m -> ops := !ops +. float_of_int (Cachesim.Metrics.refs m)
                | Error _ -> ())
              o.Engine.Sweep.cells;
            cells := o.Engine.Sweep.cells @ !cells)
          pe_counts)
      benches;
    (!cells, !wall)
  in
  (* the same grid, one span per trace and per cell *)
  let traced_pass () =
    let t0 = Measure.now () in
    let cells =
      List.concat_map
        (fun b ->
          List.concat_map
            (fun n ->
              let attrs = [ ("bench", b.Benchlib.Programs.name); ("pes", string_of_int n) ] in
              let r =
                Spans.with_ ~attrs "rapwam.run_rapwam"
                  ~counts:(fun r ->
                    [ ("refs", r.Benchlib.Runner.total_refs); ("instructions", r.Benchlib.Runner.instructions) ])
                  (fun () -> Benchlib.Runner.run_rapwam ~n_pes:n b)
              in
              let accesses = Measure.accesses r.Benchlib.Runner.trace in
              List.concat_map
                (fun kind ->
                  List.map
                    (fun cache_words ->
                      let m, _ =
                        Spans.with_ "cachesim.simulate_best"
                          ~attrs:
                            (attrs
                            @ [ ("protocol", Cachesim.Protocol.kind_name kind);
                                ("cache_words", string_of_int cache_words) ])
                          ~counts:(fun (m, _) ->
                            [ ("refs", Cachesim.Metrics.refs m); ("bus_words", m.Cachesim.Metrics.bus_words) ])
                          (fun () ->
                            Cachesim.Multi.simulate_best ~line_words ~kind ~cache_words ~n_pes:n
                              r.Benchlib.Runner.trace)
                      in
                      let c =
                        {
                          Engine.Results.config =
                            { bench = b.Benchlib.Programs.name; n_pes = n; protocol = kind; line_words;
                              cache_words };
                          metrics = Ok m;
                        }
                      in
                      Oracle.record tally (cell_ok ~accesses:(fun _ -> accesses) c) (fun () ->
                          "fig4 traced cell " ^ Engine.Results.config_key c.Engine.Results.config);
                      c)
                    (sizes ~smoke:ctx.Run.smoke))
                protocols)
            pe_counts)
        benches
    in
    (cells, Measure.now () -. t0)
  in
  let pass ~traced =
    let cells, wall =
      if traced then Spans.with_ "bench.pass" traced_pass else engine_pass ()
    in
    check_digest (cells_digest cells) (List.length cells);
    wall
  in
  (* set-up: the static front end, then every program's 8-PE trace
     simulated at one point to warm the runtime *)
  let (), setup_s =
    Run.setups (fun () ->
        ignore (List.map Frontend.run benches);
        ignore
          (Engine.Sweep.run ~jobs:1
             { (slice ~smoke:ctx.Run.smoke (List.hd benches) 8) with
               Engine.Sweep.benchmarks = benches; protocols = [ Cachesim.Protocol.Hybrid ];
               cache_sizes = [ 1024 ] }))
  in
  let pass_s, traced_s = Run.passes ctx ~fixed:1 pass in
  (* answers: RAP-WAM at every PE count against the sequential WAM and
     the oracle *)
  List.iter
    (fun b ->
      let q = b.Benchlib.Programs.query in
      let seq = Benchlib.Runner.run_wam ~keep_trace:false b in
      Oracle.record tally
        (Oracle.check_run q ~succeeded:seq.Benchlib.Runner.succeeded ~answer:seq.Benchlib.Runner.answer)
        (fun () -> "fig4 wam answer " ^ b.Benchlib.Programs.name);
      List.iter
        (fun n ->
          let r = Benchlib.Runner.run_rapwam ~keep_trace:false ~n_pes:n b in
          Oracle.record tally
            (Benchlib.Runner.answers_agree r seq
            && Oracle.check_run q ~succeeded:r.Benchlib.Runner.succeeded ~answer:r.Benchlib.Runner.answer)
            (fun () -> Printf.sprintf "fig4 rapwam answer %s %dpe" b.Benchlib.Programs.name n))
        pe_counts)
    benches;
  {
    Run.setup_s;
    pass_s;
    traced_s;
    ops = !ops;
    op = "simulated reference";
    latency_s = pass_s;
    request = "the whole grid";
    tally;
    digest = (match !digests with d :: _ -> d | [] -> "");
    lines =
      [ Printf.sprintf "engine overhead %.4f s over %d sweeps" !overhead_s
          (Array.length pass_s * List.length benches * List.length pe_counts) ];
    ledger = Ledger.of_benchmarks benches;
    stream = Ledger.stream ();
  }
