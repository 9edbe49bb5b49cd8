(* The experiment harness: regenerates every table and figure of the
   paper's evaluation, plus the ablations called out in DESIGN.md.

   Absolute counts depend on inputs the paper does not publish; each
   experiment prints the paper's reference values next to the measured
   ones so the *shape* (orderings, thresholds, trends) can be checked.
   EXPERIMENTS.md records a snapshot of this output. *)

module J = Obs.Json

let write_json path v = Resilience.Atomic_io.write_string path (J.to_string v)

let fig4_sizes = [ 64; 128; 256; 512; 1024; 2048; 4096; 8192 ]
let fig4_pes = [ 1; 2; 4; 8 ]

type setup = {
  benchmarks : Benchlib.Programs.benchmark list;
  fig2_pes : int list;
  jobs : int;  (** worker domains for the sweep engine *)
  quick : bool;
}

let full_setup ?jobs () =
  {
    benchmarks = Benchlib.Inputs.default_benchmarks ();
    fig2_pes = [ 1; 2; 4; 8; 12; 16; 20; 24; 32; 40 ];
    jobs = Option.value jobs ~default:(Engine.Pool.default_jobs ());
    quick = false;
  }

let quick_setup ?jobs () =
  {
    benchmarks = Benchlib.Inputs.small_benchmarks ();
    fig2_pes = [ 1; 2; 4; 8 ];
    jobs = Option.value jobs ~default:(Engine.Pool.default_jobs ());
    quick = true;
  }

(* Memoized runs: several experiments need the same (bench, pes).
   The key includes the query because the same benchmark name can run
   at different input sizes in one process (table3 always uses the
   paper-scale inputs, --quick shrinks the others). *)
let run_cache : (string * string * int, Benchlib.Runner.result) Hashtbl.t =
  Hashtbl.create 64

let run_key bench n_pes =
  (bench.Benchlib.Programs.name, bench.Benchlib.Programs.query, n_pes)

let rapwam_run bench ~n_pes =
  let key = run_key bench n_pes in
  match Hashtbl.find_opt run_cache key with
  | Some r -> r
  | None ->
    let r = Benchlib.Runner.run_rapwam ~n_pes bench in
    Hashtbl.add run_cache key r;
    r

let wam_run bench =
  let key = run_key bench 0 in
  match Hashtbl.find_opt run_cache key with
  | Some r -> r
  | None ->
    let r = Benchlib.Runner.run_wam bench in
    Hashtbl.add run_cache key r;
    r

(* Fill [run_cache] for the given (benchmark, pes) pairs -- pes 0 =
   sequential WAM -- on the sweep engine's domain pool.  Cached pairs
   are skipped; a failed run is reported and recomputed lazily (and
   sequentially) if an experiment really needs it.  The cache itself
   is only ever touched from the main domain. *)
let prewarm_runs setup pairs =
  let missing =
    List.filter
      (fun (b, pes) -> not (Hashtbl.mem run_cache (run_key b pes)))
      (List.sort_uniq compare pairs)
  in
  if missing <> [] then begin
    let results =
      Engine.Sweep.parallel_runs ~jobs:setup.jobs ~echo:true missing
    in
    List.iter2
      (fun (b, pes) (_key, outcome) ->
        match outcome with
        | Ok r -> Hashtbl.replace run_cache (run_key b pes) r
        | Error e ->
          Format.eprintf "prewarm: %s on %d PEs failed: %s@."
            b.Benchlib.Programs.name pes e)
      missing results
  end

(* Prepared traces, one per (run, line size): every simulation point
   over a run's trace shares one [Multi.prepare] of it. *)
let prepared_cache :
    (string * string * int * int, Cachesim.Multi.prepared) Hashtbl.t =
  Hashtbl.create 64

let prepared (r : Benchlib.Runner.result) ~line_words =
  let name, query, pes = run_key r.Benchlib.Runner.bench r.Benchlib.Runner.n_pes in
  let key = (name, query, pes, line_words) in
  match Hashtbl.find_opt prepared_cache key with
  | Some p -> p
  | None ->
    let p = Cachesim.Multi.prepare ~line_words r.Benchlib.Runner.trace in
    Hashtbl.add prepared_cache key p;
    p

(* Engine-backed memo of "best-allocation" multiprocessor simulation
   points (the quantity figure4, mlips and the ablations average).
   [figure4] fills it in bulk with a parallel sweep; misses compute on
   demand so every experiment also runs standalone. *)
let sim_best_cache :
    (string * Cachesim.Protocol.kind * int * int, Cachesim.Metrics.t)
    Hashtbl.t =
  Hashtbl.create 256

let sim_best bench ~kind ~n_pes ~cache_words =
  let key = (bench.Benchlib.Programs.name, kind, n_pes, cache_words) in
  match Hashtbl.find_opt sim_best_cache key with
  | Some st -> st
  | None ->
    let r = rapwam_run bench ~n_pes in
    let st, _alloc =
      Cachesim.Multi.simulate_best_prepared ~kind ~cache_words
        ~n_pes:(max n_pes 1) (prepared r ~line_words:4)
    in
    Hashtbl.add sim_best_cache key st;
    st

let section title =
  Format.printf "@.==== %s ====@.@." title

(* ------------------------------------------------------------------ *)
(* Table 1: storage-object taxonomy (printed from the machine's own   *)
(* area classification -- the same table that drives the hybrid tags). *)

let table1 _setup =
  section "Table 1: Characteristics of RAP-WAM Storage Objects";
  let t =
    Stats.Table.create ~title:"(machine classification; Code added)"
      ~headers:[ "Frame type"; "area"; "WAM?"; "lock"; "locality" ]
      ~aligns:[ Stats.Table.Left; Stats.Table.Left; Stats.Table.Left;
                Stats.Table.Left; Stats.Table.Left ]
      ()
  in
  List.iter
    (fun a ->
      Stats.Table.add_row t
        [
          Trace.Area.name a;
          Trace.Area.region a;
          (if Trace.Area.in_wam a then "yes" else "no");
          (if Trace.Area.locked a then "yes" else "no");
          Trace.Area.locality_name (Trace.Area.locality a);
        ])
    (List.filter (fun a -> a <> Trace.Area.Code) Trace.Area.all);
  Stats.Table.print t;
  Format.printf
    "paper: identical rows (Envts./control Local, P.Vars Global, Heap@ \
     Global, Trail/PDL/CPs/Markers Local, Parcall counts+Goal Frames+@ \
     Messages locked Global).@."

(* ------------------------------------------------------------------ *)
(* Table 2: benchmark statistics on 8 PEs.                            *)

let table2 setup =
  section "Table 2: Statistics for the Benchmarks Used (8 processors)";
  let t =
    Stats.Table.create ~title:"measured (data references, as in the paper)"
      ~headers:
        [ "parameter"; "deriv"; "tak"; "qsort"; "matrix" ]
      ~aligns:[ Stats.Table.Left; Stats.Table.Right; Stats.Table.Right;
                Stats.Table.Right; Stats.Table.Right ]
      ()
  in
  let runs = List.map (fun b -> rapwam_run b ~n_pes:8) setup.benchmarks in
  let wams = List.map wam_run setup.benchmarks in
  let row name f = Stats.Table.add_row t (name :: List.map f runs) in
  row "Instructions executed" (fun r ->
      string_of_int r.Benchlib.Runner.instructions);
  row "References (RAP-WAM)" (fun r ->
      string_of_int r.Benchlib.Runner.data_refs);
  Stats.Table.add_row t
    ("References (WAM)"
    :: List.map (fun r -> string_of_int r.Benchlib.Runner.data_refs) wams);
  row "Goals actually in //" (fun r ->
      string_of_int r.Benchlib.Runner.goals_stolen);
  row "Parcalls" (fun r -> string_of_int r.Benchlib.Runner.parcalls);
  row "Speedup (vs WAM rounds)" (fun r ->
      let wam = List.find
          (fun w -> w.Benchlib.Runner.bench.Benchlib.Programs.name
                    = r.Benchlib.Runner.bench.Benchlib.Programs.name)
          wams
      in
      Printf.sprintf "%.2f"
        (float_of_int wam.Benchlib.Runner.instructions
        /. float_of_int r.Benchlib.Runner.rounds));
  Stats.Table.print t;
  Format.printf
    "paper:   instr 33520 / 75254 / 237884 / 95349;@ refs(RAP) 85477 / \
     178967 / 502717 / 96013;@ refs(WAM) 82519 / 169599 / 499526 / 95357;@ \
     goals-in-// 97 / 263 / 97 / 24.@.";
  (* consistency: every parallel answer must match the WAM answer *)
  List.iter2
    (fun r w ->
      if not (Benchlib.Runner.answers_agree r w) then
        Format.printf "WARNING: %s parallel answer differs from WAM!@."
          r.Benchlib.Runner.bench.Benchlib.Programs.name)
    runs wams

(* ------------------------------------------------------------------ *)
(* Figure 2: RAP-WAM work (%% of WAM) vs number of PEs, for deriv.    *)

let figure2 setup =
  section "Figure 2: RAP-WAM Overheads for \"deriv\"";
  let bench =
    List.find
      (fun b -> b.Benchlib.Programs.name = "deriv")
      setup.benchmarks
  in
  let wam = wam_run bench in
  let wam_refs = wam.Benchlib.Runner.data_refs in
  let work = Stats.Series.create "work(%WAM)" in
  let speedup = Stats.Series.create "speedup" in
  let stolen = Stats.Series.create "goals-stolen" in
  List.iter
    (fun n ->
      let r = rapwam_run bench ~n_pes:n in
      Stats.Series.add work (float_of_int n)
        (100.0
        *. float_of_int r.Benchlib.Runner.data_refs
        /. float_of_int wam_refs);
      Stats.Series.add speedup (float_of_int n)
        (float_of_int wam.Benchlib.Runner.instructions
        /. float_of_int r.Benchlib.Runner.rounds);
      Stats.Series.add stolen (float_of_int n)
        (float_of_int r.Benchlib.Runner.goals_stolen))
    setup.fig2_pes;
  Format.printf "%a@.@."
    (fun fmt () -> Stats.Series.render_columns fmt [ work; speedup; stolen ])
    ();
  Format.printf "%a@."
    (fun fmt () -> Stats.Series.render_bars fmt work)
    ();
  Format.printf
    "paper: work rises gently from ~100%% (1 PE) and stays low (order of \
     15%% overhead up to 40 PEs); speedup grows with PEs.@.\
     (this model's per-parcall frames are heavier than the authors'@ \
     microcoded implementation, so the overhead level is higher; the@ \
     shape -- near-WAM work at 1 PE, slow growth with PEs -- is the@ \
     reproduced claim).@."

(* Extension: the Figure 2 sweep over all four benchmarks (the paper
   shows deriv only). *)
let figure2_all setup =
  section "Extension: work and speedup vs PEs, all benchmarks";
  let pes = [ 1; 2; 4; 8; 16 ] in
  let t =
    Stats.Table.create ~title:"work as % of WAM refs (speedup)"
      ~headers:("benchmark" :: List.map (fun n -> Printf.sprintf "%d PE" n) pes)
      ~aligns:
        (Stats.Table.Left :: List.map (fun _ -> Stats.Table.Right) pes)
      ()
  in
  List.iter
    (fun b ->
      let wam = wam_run b in
      let cells =
        List.map
          (fun n ->
            let r = rapwam_run b ~n_pes:n in
            Printf.sprintf "%.0f%% (%.2f)"
              (100.0
              *. float_of_int r.Benchlib.Runner.data_refs
              /. float_of_int wam.Benchlib.Runner.data_refs)
              (float_of_int wam.Benchlib.Runner.instructions
              /. float_of_int r.Benchlib.Runner.rounds))
          pes
      in
      Stats.Table.add_row t (b.Benchlib.Programs.name :: cells))
    setup.benchmarks;
  Stats.Table.print t;
  Format.printf
    "reading: overhead tracks granularity -- matrix (coarse) is nearly free, deriv (fine) pays the most; speedups track the available parallelism.@."

(* ------------------------------------------------------------------ *)
(* Table 3: fit of the small benchmarks to the large-benchmark        *)
(* population (sequential copyback caches at 512 and 1024 words).     *)

let table3 _setup =
  section "Table 3: Fit of Small Benchmarks to Large Benchmarks";
  let population = Benchlib.Large.population () in
  let small = [ "deriv"; "tak"; "qsort" ] in
  let small_benches = List.map Benchlib.Inputs.benchmark small in
  let ratio buf cache_words =
    Cachesim.Metrics.traffic_ratio
      (Cachesim.Multi.simulate ~line_words:4 ~kind:Cachesim.Protocol.Copyback
         ~cache_words ~n_pes:1 buf)
  in
  let pop_traces =
    List.map
      (fun b ->
        let r = wam_run b in
        (b.Benchlib.Programs.name, r.Benchlib.Runner.trace))
      population
  in
  let small_traces =
    List.map
      (fun b ->
        let r = wam_run b in
        (b.Benchlib.Programs.name, r.Benchlib.Runner.trace))
      small_benches
  in
  let t =
    Stats.Table.create ~title:"traffic-ratio z-scores vs population"
      ~headers:
        ([ "cache (words)"; "Etr"; "sigma-tr" ]
        @ small @ [ "mean|z|" ])
      ()
  in
  List.iter
    (fun size ->
      let pop = List.map (fun (_, buf) -> ratio buf size) pop_traces in
      let zs =
        List.map (fun (_, buf) -> Stats.Fit.z_score ~population:pop (ratio buf size))
          small_traces
      in
      let mean_abs =
        List.fold_left (fun a z -> a +. abs_float z) 0.0 zs
        /. float_of_int (List.length zs)
      in
      Stats.Table.add_row t
        ([
           string_of_int size;
           Stats.Table.cell_float ~decimals:4 (Stats.Fit.mean pop);
           Stats.Table.cell_float ~decimals:4 (Stats.Fit.stddev pop);
         ]
        @ List.map (fun z -> Stats.Table.cell_float ~decimals:2 z) zs
        @ [ Stats.Table.cell_float ~decimals:2 mean_abs ]))
    [ 512; 1024 ];
  Stats.Table.print t;
  Format.printf "population (large benchmarks): %s@."
    (String.concat ", " (List.map fst pop_traces));
  Format.printf
    "paper: Etr 0.164/0.108, sigma 0.063/0.057; z-scores deriv 1.1/2.0, \
     tak -1.9/-1.1, qsort 0.83/1.6; mean 1.3/1.6 -- i.e. |z| of order 1-2, \
     the small benchmarks sit inside the large-benchmark population.@."

(* ------------------------------------------------------------------ *)
(* Figure 4: mean traffic ratio of the coherency schemes.             *)

let fig4_protocols =
  [
    Cachesim.Protocol.Write_in_broadcast;
    Cachesim.Protocol.Hybrid;
    Cachesim.Protocol.Write_through;
  ]

(* Mean over the benchmarks, with the paper's per-point selection of
   the allocation policy that yields the lowest traffic. *)
let mean_traffic setup ~kind ~n_pes ~cache_words =
  Stats.Fit.mean
    (List.map
       (fun b ->
         Cachesim.Metrics.traffic_ratio (sim_best b ~kind ~n_pes ~cache_words))
       setup.benchmarks)

(* Run a Figure-4-style grid on the sweep engine and pour the cells
   into [sim_best_cache]; the tables below then print from the memo.
   Traces come from [run_cache] (pre-warmed in parallel), shared
   read-only across the pool. *)
let engine_fill setup ~protocols ~pe_counts ~cache_sizes =
  let traces =
    List.concat_map
      (fun b ->
        List.map
          (fun n ->
            ( (b.Benchlib.Programs.name, n),
              (rapwam_run b ~n_pes:n).Benchlib.Runner.trace ))
          pe_counts)
      setup.benchmarks
  in
  let outcome =
    Engine.Sweep.run ~jobs:setup.jobs ~echo:true ~traces
      {
        Engine.Sweep.benchmarks = setup.benchmarks;
        pe_counts;
        protocols;
        cache_sizes;
        line_words = 4;
        alloc = Engine.Sweep.Best;
      }
  in
  List.iter
    (fun (c : Engine.Results.cell) ->
      let cfg = c.Engine.Results.config in
      match c.Engine.Results.metrics with
      | Ok st ->
        Hashtbl.replace sim_best_cache
          ( cfg.Engine.Results.bench,
            cfg.Engine.Results.protocol,
            cfg.Engine.Results.n_pes,
            cfg.Engine.Results.cache_words )
          st
      | Error e ->
        Format.eprintf "engine: cell %s failed: %s@."
          (Engine.Results.config_key cfg)
          e)
    outcome.Engine.Sweep.cells

let figure4 setup =
  section "Figure 4: Traffic of Coherency Schemes";
  (* stage 1 in parallel: each benchmark's trace, once per PE count *)
  prewarm_runs setup
    (List.concat_map
       (fun b -> List.map (fun n -> (b, n)) fig4_pes)
       setup.benchmarks);
  (* stage 2 in parallel: the whole protocol x size grid, plus the
     (8 PE, 1024 words) checks quoted after the tables *)
  engine_fill setup ~protocols:fig4_protocols ~pe_counts:fig4_pes
    ~cache_sizes:fig4_sizes;
  engine_fill setup
    ~protocols:
      [ Cachesim.Protocol.Write_through_broadcast; Cachesim.Protocol.Copyback ]
    ~pe_counts:[ 8 ] ~cache_sizes:[ 1024 ];
  Format.printf
    "mean traffic ratio over the four benchmarks; 4-word lines;@ \
     allocation policy as in the paper (no-write-allocate for small@ \
     caches, 512 too for hybrid).@.@.";
  List.iter
    (fun kind ->
      Format.printf "--- %s ---@." (Cachesim.Protocol.kind_name kind);
      let series =
        List.map
          (fun n_pes ->
            let s =
              Stats.Series.create (Printf.sprintf "%dPE" n_pes)
            in
            List.iter
              (fun size ->
                Stats.Series.add s (float_of_int size)
                  (mean_traffic setup ~kind ~n_pes ~cache_words:size))
              fig4_sizes;
            s)
          fig4_pes
      in
      Format.printf "%a@.@."
        (fun fmt () -> Stats.Series.render_columns fmt series)
        ())
    fig4_protocols;
  (* the paper's write-through-broadcast remark *)
  let wib = mean_traffic setup ~kind:Cachesim.Protocol.Write_in_broadcast
      ~n_pes:8 ~cache_words:1024
  in
  let wtb =
    mean_traffic setup ~kind:Cachesim.Protocol.Write_through_broadcast
      ~n_pes:8 ~cache_words:1024
  in
  let cb = mean_traffic setup ~kind:Cachesim.Protocol.Copyback ~n_pes:8
      ~cache_words:1024
  in
  Format.printf
    "checks (8 PEs, 1024 words): write-in %.3f vs write-through-broadcast \
     %.3f (paper: almost identical => low communication traffic); \
     copyback %.3f (paper: copyback does exceedingly well at 1024+).@."
    wib wtb cb;
  let wib128 = mean_traffic setup ~kind:Cachesim.Protocol.Write_in_broadcast
      ~n_pes:8 ~cache_words:128
  in
  Format.printf
    "paper's headline: 8 PEs with >=128-word broadcast caches capture \
     >70%% of traffic (ratio < 0.3); measured at 128 words: %.3f.@."
    wib128

(* ------------------------------------------------------------------ *)
(* Section 3.3: the 2-MLIPS back-of-the-envelope + bus queueing.      *)

let mlips setup =
  section "Section 3.3: the 2 MLIPS back-of-the-envelope";
  Format.printf "--- with the paper's assumptions ---@.%a@.@."
    (fun fmt () -> Queueing.Mlips.pp fmt Queueing.Mlips.paper_assumptions)
    ();
  (* measured variant: refs/instruction and instr/inference from the
     8-PE runs; capture from the write-in broadcast cache at 1024 *)
  let runs = List.map (fun b -> rapwam_run b ~n_pes:8) setup.benchmarks in
  let mean f = Stats.Fit.mean (List.map f runs) in
  let instr_per_inference =
    mean (fun r ->
        float_of_int r.Benchlib.Runner.instructions
        /. float_of_int (max 1 r.Benchlib.Runner.inferences))
  in
  let refs_per_instruction =
    mean (fun r ->
        float_of_int r.Benchlib.Runner.total_refs
        /. float_of_int (max 1 r.Benchlib.Runner.instructions))
  in
  let traffic =
    mean_traffic setup ~kind:Cachesim.Protocol.Write_in_broadcast ~n_pes:8
      ~cache_words:1024
  in
  let measured =
    Queueing.Mlips.of_measurements ~instr_per_inference
      ~refs_per_instruction ~traffic_ratio:traffic ()
  in
  Format.printf "--- with measured parameters ---@.%a@.@."
    (fun fmt () -> Queueing.Mlips.pp fmt measured)
    ();
  Format.printf
    "paper: 15 instr/LI x 3 refs/instr = 180 bytes/LI; 2 MLIPS = 360 MB/s \
     processor side; 70%% capture => 108 MB/s bus -- feasible then.@.@.";
  (* bus-contention model: a plain 1-word/cycle bus versus the paper's
     "fast bus and interleaved memory" (multiple/overlapped busses,
     modeled as 4 words per cycle) *)
  Format.printf "--- bus queueing model (M/G/1) ---@.";
  let model ?(bus = 1.0) n =
    Queueing.Busmodel.make ~n_pes:n
      ~refs_per_cycle:(refs_per_instruction /. 4.0)
        (* assume 4 cycles per WAM instruction *)
      ~traffic_ratio:traffic ~bus_words_per_cycle:bus
  in
  let t =
    Stats.Table.create
      ~title:"PE efficiency under bus contention (slow vs fast bus)"
      ~headers:
        [ "PEs"; "util 1w/cyc"; "eff 1w/cyc"; "util 4w/cyc"; "eff 4w/cyc";
          "effective PEs (fast)" ]
      ()
  in
  List.iter
    (fun n ->
      let slow = model n in
      let fast = model ~bus:4.0 n in
      Stats.Table.add_row t
        [
          string_of_int n;
          Stats.Table.cell_float ~decimals:2 (Queueing.Busmodel.utilization slow);
          Stats.Table.cell_float ~decimals:3 (Queueing.Busmodel.pe_efficiency slow);
          Stats.Table.cell_float ~decimals:2 (Queueing.Busmodel.utilization fast);
          Stats.Table.cell_float ~decimals:3 (Queueing.Busmodel.pe_efficiency fast);
          Stats.Table.cell_float ~decimals:2 (Queueing.Busmodel.effective_pes fast);
        ])
    [ 1; 2; 4; 8; 12; 16; 24; 32 ];
  Stats.Table.print t;
  Format.printf
    "paper (via Tick's model): a slow bus saturates quickly, but with a \
     relatively fast bus and interleaved memory shared-memory efficiency \
     stays high at small-to-medium PE counts -- supporting the 2 MLIPS \
     claim.@."

(* ------------------------------------------------------------------ *)
(* Ablations.                                                         *)

let ablation_tags setup =
  section "Ablation: hybrid-protocol tag source";
  Format.printf
    "hybrid traffic when the per-reference locality tags are replaced by \
     all-Global (degenerates towards write-through) or all-Local \
     (copyback-like but incoherent for shared data):@.@.";
  let t =
    Stats.Table.create ~title:"mean traffic ratio, 8 PEs"
      ~headers:[ "cache"; "hybrid(tags)"; "all-global"; "all-local";
                 "write-through"; "write-in bcast" ]
      ()
  in
  List.iter
    (fun size ->
      let mean_with ?locality_override () =
        Stats.Fit.mean
          (List.map
             (fun b ->
               let r = rapwam_run b ~n_pes:8 in
               Cachesim.Metrics.traffic_ratio
                 (Cachesim.Multi.simulate ?locality_override
                    ~kind:Cachesim.Protocol.Hybrid ~cache_words:size ~n_pes:8
                    r.Benchlib.Runner.trace))
             setup.benchmarks)
      in
      Stats.Table.add_row t
        [
          string_of_int size;
          Stats.Table.cell_float (mean_with ());
          Stats.Table.cell_float (mean_with ~locality_override:true ());
          Stats.Table.cell_float (mean_with ~locality_override:false ());
          Stats.Table.cell_float
            (mean_traffic setup ~kind:Cachesim.Protocol.Write_through
               ~n_pes:8 ~cache_words:size);
          Stats.Table.cell_float
            (mean_traffic setup ~kind:Cachesim.Protocol.Write_in_broadcast
               ~n_pes:8 ~cache_words:size);
        ])
    [ 256; 1024; 4096 ];
  Stats.Table.print t;
  Format.printf
    "expected: tags sit between the extremes; all-global converges to \
     write-through; all-local approaches copyback traffic (by dropping \
     coherency for global data -- unsafe, traffic-only yardstick).@."

let ablation_sched setup =
  section "Ablation: goal scheduling policy";
  let t =
    Stats.Table.create ~title:"deriv + qsort on 8 PEs"
      ~headers:
        [ "benchmark"; "policy"; "work refs"; "stolen"; "rounds"; "speedup" ]
      ~aligns:[ Stats.Table.Left; Stats.Table.Left; Stats.Table.Right;
                Stats.Table.Right; Stats.Table.Right; Stats.Table.Right ]
      ()
  in
  List.iter
    (fun name ->
      let bench = Benchlib.Inputs.benchmark name in
      let wam = wam_run bench in
      List.iter
        (fun (pname, steal, allow) ->
          let r =
            Benchlib.Runner.run_rapwam ~keep_trace:false ~steal
              ~allow_steal:allow ~n_pes:8 bench
          in
          Stats.Table.add_row t
            [
              name;
              pname;
              string_of_int r.Benchlib.Runner.data_refs;
              string_of_int r.Benchlib.Runner.goals_stolen;
              string_of_int r.Benchlib.Runner.rounds;
              Printf.sprintf "%.2f"
                (float_of_int wam.Benchlib.Runner.instructions
                /. float_of_int r.Benchlib.Runner.rounds);
            ])
        [
          ("steal-oldest", Rapwam.Sim.Steal_oldest, true);
          ("steal-newest", Rapwam.Sim.Steal_newest, true);
          ("no-steal", Rapwam.Sim.Steal_oldest, false);
        ])
    [ "deriv"; "qsort" ];
  Stats.Table.print t;
  ignore setup;
  Format.printf
    "observed: both stealing policies reach similar speedups (newest-first \
     trades a few more steals for slightly better balance here); no-steal \
     degenerates to sequential speed while still paying the goal-stack \
     overhead.@."

let ablation_line setup =
  section "Ablation: line size at 1024-word caches (write-in broadcast)";
  let t =
    Stats.Table.create ~title:"mean traffic ratio and miss ratio, 8 PEs"
      ~headers:[ "line words"; "traffic ratio"; "miss ratio" ]
      ()
  in
  List.iter
    (fun lw ->
      let stats =
        List.map
          (fun b ->
            let r = rapwam_run b ~n_pes:8 in
            Cachesim.Multi.simulate_prepared
              ~kind:Cachesim.Protocol.Write_in_broadcast ~cache_words:1024
              ~n_pes:8 (prepared r ~line_words:lw))
          setup.benchmarks
      in
      Stats.Table.add_row t
        [
          string_of_int lw;
          Stats.Table.cell_float
            (Stats.Fit.mean (List.map Cachesim.Metrics.traffic_ratio stats));
          Stats.Table.cell_float
            (Stats.Fit.mean (List.map Cachesim.Metrics.miss_ratio stats));
        ])
    [ 1; 2; 4; 8; 16 ];
  Stats.Table.print t;
  Format.printf
    "expected: miss ratio falls with longer lines (spatial locality) \
     while traffic passes through a minimum (long lines move unused \
     words).@."

let ablation_alloc setup =
  section "Ablation: write-allocate vs no-write-allocate";
  let t =
    Stats.Table.create
      ~title:"write-in broadcast, 8 PEs (traffic / miss ratios)"
      ~headers:
        [ "cache"; "tr alloc"; "tr no-alloc"; "miss alloc"; "miss no-alloc" ]
      ()
  in
  (* one pass per (benchmark, policy) serves every size *)
  let pass alloc =
    List.map
      (fun b ->
        let r = rapwam_run b ~n_pes:8 in
        Cachesim.Multi.simulate_sizes ~write_allocate:alloc
          ~kind:Cachesim.Protocol.Write_in_broadcast ~cache_words:fig4_sizes
          ~n_pes:8 (prepared r ~line_words:4))
      setup.benchmarks
  in
  let alloc = pass true and no_alloc = pass false in
  List.iteri
    (fun i size ->
      let mean per_bench pick =
        Stats.Fit.mean (List.map (fun sizes -> pick (List.nth sizes i)) per_bench)
      in
      Stats.Table.add_row t
        [
          string_of_int size;
          Stats.Table.cell_float (mean alloc Cachesim.Metrics.traffic_ratio);
          Stats.Table.cell_float (mean no_alloc Cachesim.Metrics.traffic_ratio);
          Stats.Table.cell_float (mean alloc Cachesim.Metrics.miss_ratio);
          Stats.Table.cell_float (mean no_alloc Cachesim.Metrics.miss_ratio);
        ])
    fig4_sizes;
  Stats.Table.print t;
  Format.printf
    "paper: no-write-allocate gives lower traffic for small caches but a \
     higher miss ratio; write-allocate wins at large sizes.@."

(* ------------------------------------------------------------------ *)
(* Ablation: granularity control.  Parallelism below a size threshold  *)
(* costs more than it buys; the threshold is ordinary source-level     *)
(* control (an if-then-else choosing the CGE or the sequential body),  *)
(* the style of annotation the RAP model's later granularity-analysis  *)
(* work generates automatically.                                       *)

let granularity_src threshold =
  Printf.sprintf
    "fib(0, 1).\n\
     fib(1, 1).\n\
     fib(N, F) :-\n\
    \  N > 1, N1 is N - 1, N2 is N - 2,\n\
    \  ( N > %d -> fib(N1, F1) & fib(N2, F2)\n\
    \  ; fib(N1, F1), fib(N2, F2) ),\n\
    \  F is F1 + F2.\n"
    threshold

let ablation_granularity _setup =
  section "Ablation: granularity control (parallelize only above a size)";
  let input = 19 in
  let seq_prog =
    Wam.Program.prepare ~parallel:false ~src:(granularity_src 0)
      ~query:(Printf.sprintf "fib(%d, F)" input) ()
  in
  let _, seq_m = Wam.Seq.run ~sink:Trace.Sink.null seq_prog in
  let seq_instr = Wam.Machine.total_instr seq_m in
  let t =
    Stats.Table.create
      ~title:(Printf.sprintf "fib(%d) on 8 PEs, threshold sweep" input)
      ~headers:
        [ "threshold"; "parcalls"; "stolen"; "work refs"; "rounds";
          "speedup" ]
      ()
  in
  List.iter
    (fun threshold ->
      let stats = Trace.Areastats.create () in
      let prog =
        Wam.Program.prepare ~parallel:true ~src:(granularity_src threshold)
          ~query:(Printf.sprintf "fib(%d, F)" input) ()
      in
      let sim =
        Rapwam.Sim.create ~sink:(Trace.Areastats.sink stats) ~n_workers:8
          prog
      in
      (match Rapwam.Sim.run_prepared sim prog with
      | Wam.Seq.Success _ -> ()
      | Wam.Seq.Failure -> Format.printf "WARNING: fib failed!@.");
      let m = sim.Rapwam.Sim.m in
      Stats.Table.add_row t
        [
          string_of_int threshold;
          string_of_int m.Wam.Machine.parcalls;
          string_of_int m.Wam.Machine.goals_stolen;
          string_of_int (Trace.Areastats.data_refs stats);
          string_of_int sim.Rapwam.Sim.rounds;
          Printf.sprintf "%.2f"
            (float_of_int seq_instr /. float_of_int sim.Rapwam.Sim.rounds);
        ])
    [ 0; 4; 8; 12; 16; 18 ];
  Stats.Table.print t;
  Format.printf
    "expected: a moderate threshold keeps nearly all the speedup while cutting parcalls (and their work) by orders of magnitude; too high a threshold starves the PEs.@."

(* ------------------------------------------------------------------ *)
(* Extension: end-to-end time estimate (simulation rounds + cache      *)
(* misses + bus queueing), the analysis the paper defers to Tick's     *)
(* thesis.                                                             *)

let timing setup =
  section "Extension: effective speedup with the memory system";
  Format.printf
    "estimated cycles = rounds x CPI + bus stalls (M/D/1 queue over the@ \
     run's bus words; write-in broadcast caches, 1024 words, 4-word@ \
     lines).  'ideal' ignores memory; 'effective' charges each PE@ \
     its share of the contended bus.@.@.";
  let t =
    Stats.Table.create ~title:"WAM (1 PE) vs RAP-WAM (8 PEs)"
      ~headers:
        [ "benchmark"; "ideal speedup"; "eff speedup"; "bus util (8PE)";
          "mem efficiency" ]
      ~aligns:
        [ Stats.Table.Left; Stats.Table.Right; Stats.Table.Right;
          Stats.Table.Right; Stats.Table.Right ]
      ()
  in
  List.iter
    (fun b ->
      let wam = wam_run b in
      let rap = rapwam_run b ~n_pes:8 in
      let cache_stats r n =
        Cachesim.Multi.simulate_prepared
          ~kind:Cachesim.Protocol.Write_in_broadcast ~cache_words:1024 ~n_pes:n
          (prepared r ~line_words:4)
      in
      let seq_est =
        Cachesim.Timing.estimate ~rounds:wam.Benchlib.Runner.instructions
          ~n_pes:1 (cache_stats wam 1)
      in
      let par_est =
        Cachesim.Timing.estimate ~rounds:rap.Benchlib.Runner.rounds ~n_pes:8
          (cache_stats rap 8)
      in
      Stats.Table.add_row t
        [
          b.Benchlib.Programs.name;
          Stats.Table.cell_float ~decimals:2
            (float_of_int wam.Benchlib.Runner.instructions
            /. float_of_int rap.Benchlib.Runner.rounds);
          Stats.Table.cell_float ~decimals:2
            (Cachesim.Timing.effective_speedup ~seq:seq_est ~par:par_est);
          Stats.Table.cell_float ~decimals:3
            par_est.Cachesim.Timing.bus_utilization;
          Stats.Table.cell_float ~decimals:3
            par_est.Cachesim.Timing.memory_efficiency;
        ])
    setup.benchmarks;
  Stats.Table.print t;
  Format.printf
    "reading: the memory system erodes but does not erase the parallel@ gain -- the paper's overall conclusion that RAP-WAM suits@ small-to-medium shared-memory machines.@."

(* ------------------------------------------------------------------ *)
(* Extension: the INTEGRATED two-level simulation.  Instead of the     *)
(* post-hoc analytic bus model, per-PE caches and a serializing bus    *)
(* run inside the scheduler loop: misses stall their PE, stalls        *)
(* reshape stealing, and the round count is a contention-aware time.   *)

let timing_integrated setup =
  section "Extension: integrated two-level simulation (caches in the loop)";
  Format.printf
    "write-in broadcast, 1024 words/PE, 4-word lines, 2-cycle memory@      latency; 'slow' bus moves 1 word/cycle, 'fast' 4 words/cycle@      (the paper's multiple/overlapped busses).@.@.";
  let cfg =
    Cachesim.Protocol.make ~kind:Cachesim.Protocol.Write_in_broadcast
      ~cache_words:1024 ()
  in
  let t =
    Stats.Table.create ~title:"speedup of 8 PEs over 1 PE, both with memory"
      ~headers:
        [ "benchmark"; "ideal"; "slow bus"; "fast bus"; "slow traffic";
          "stall share (slow)" ]
      ~aligns:
        [ Stats.Table.Left; Stats.Table.Right; Stats.Table.Right;
          Stats.Table.Right; Stats.Table.Right; Stats.Table.Right ]
      ()
  in
  List.iter
    (fun b ->
      let seq_prog =
        Wam.Program.prepare ~parallel:false ~src:b.Benchlib.Programs.src
          ~query:b.Benchlib.Programs.query ()
      in
      let par_prog () =
        Wam.Program.prepare ~parallel:true ~src:b.Benchlib.Programs.src
          ~query:b.Benchlib.Programs.query ()
      in
      let run_mem ~bus ~n prog =
        let mm = Rapwam.Memmodel.create ~bus_words_per_cycle:bus ~n_pes:n cfg in
        let _, sim = Rapwam.Sim.run ~memory:mm ~n_workers:n prog in
        (sim, mm)
      in
      let seq_slow, _ = run_mem ~bus:1.0 ~n:1 seq_prog in
      let seq_fast, _ = run_mem ~bus:4.0 ~n:1 seq_prog in
      let par_slow, mm_slow = run_mem ~bus:1.0 ~n:8 (par_prog ()) in
      let par_fast, _ = run_mem ~bus:4.0 ~n:8 (par_prog ()) in
      let ideal =
        let r = rapwam_run b ~n_pes:8 in
        float_of_int (wam_run b).Benchlib.Runner.instructions
        /. float_of_int r.Benchlib.Runner.rounds
      in
      Stats.Table.add_row t
        [
          b.Benchlib.Programs.name;
          Stats.Table.cell_float ~decimals:2 ideal;
          Stats.Table.cell_float ~decimals:2
            (float_of_int seq_slow.Rapwam.Sim.rounds
            /. float_of_int par_slow.Rapwam.Sim.rounds);
          Stats.Table.cell_float ~decimals:2
            (float_of_int seq_fast.Rapwam.Sim.rounds
            /. float_of_int par_fast.Rapwam.Sim.rounds);
          Stats.Table.cell_float ~decimals:3
            (Cachesim.Metrics.traffic_ratio (Rapwam.Memmodel.stats mm_slow));
          Stats.Table.cell_float ~decimals:3
            (Rapwam.Memmodel.total_stalls mm_slow
            /. float_of_int (8 * par_slow.Rapwam.Sim.rounds));
        ])
    setup.benchmarks;
  Stats.Table.print t;
  Format.printf
    "reading: a 1-word/cycle bus saturates and halves the gains; the \
     fast bus the paper assumes recovers most of the ideal speedup (the \
     residue is the unavoidable read-miss latency).  This is the \
     integrated version of the paper's Section 3.3 argument.@."

(* ------------------------------------------------------------------ *)
(* Annotation quality: strip the hand annotations from each benchmark  *)
(* (Database.sequentialize), then re-annotate with and without the     *)
(* global groundness/sharing analysis seeded from the benchmark query. *)
(* The comparison is recorded to BENCH_analysis.json so future PRs     *)
(* can diff annotation quality.                                        *)

type annotation_row = {
  a_name : string;
  par_off : int;
  checks_off : int;
  abandoned_off : int;
  par_on : int;
  checks_on : int;
  abandoned_on : int;
  discharged : int;
  iterations : int;
  reached : int;
  predicates : int;
}

let annotation_row (b : Benchlib.Programs.benchmark) =
  let db =
    Prolog.Database.sequentialize
      (Prolog.Database.of_string b.Benchlib.Programs.src)
  in
  let db_off, off = Prolog.Annotate.database_stats db in
  let summary =
    Analysis.Analyze.database
      ~entries:[ Analysis.Analyze.entry_of_string b.Benchlib.Programs.query ]
      db
  in
  let patterns = Analysis.Summary.patterns summary in
  let db_on, on = Prolog.Annotate.database_stats ~patterns db in
  let st = Analysis.Summary.stats summary in
  let checks_off = off.Prolog.Annotate.checks_emitted in
  let checks_on = on.Prolog.Annotate.checks_emitted in
  {
    a_name = b.Benchlib.Programs.name;
    par_off = Prolog.Database.parallel_call_count db_off;
    checks_off;
    abandoned_off = off.Prolog.Annotate.groups_abandoned;
    par_on = Prolog.Database.parallel_call_count db_on;
    checks_on;
    abandoned_on = on.Prolog.Annotate.groups_abandoned;
    discharged = max 0 (checks_off - checks_on);
    iterations = st.Analysis.Summary.iterations;
    reached = st.Analysis.Summary.reached;
    predicates = st.Analysis.Summary.predicates;
  }

let write_annotation_json path rows =
  let row r =
    J.Obj
      [
        ("name", J.String r.a_name);
        ("parallel_calls_local", J.Int r.par_off);
        ("checks_local", J.Int r.checks_off);
        ("abandoned_local", J.Int r.abandoned_off);
        ("parallel_calls_analysis", J.Int r.par_on);
        ("checks_analysis", J.Int r.checks_on);
        ("abandoned_analysis", J.Int r.abandoned_on);
        ("checks_discharged", J.Int r.discharged);
        ("iterations", J.Int r.iterations);
        ("reached", J.Int r.reached);
        ("predicates", J.Int r.predicates);
      ]
  in
  write_json path
    (J.Obj
       [
         ("schema", J.String "rapwam-annotation/1");
         ("benchmarks", J.List (List.map row rows));
       ])

let annotation setup =
  section
    "Annotation quality: local annotator vs global groundness/sharing \
     analysis";
  (* the paper's four small benchmarks plus the Table-3 population:
     annotation quality is a property of the program, not its input
     size, so the full population always runs *)
  let rows =
    List.map annotation_row
      (setup.benchmarks @ Benchlib.Large.population ())
  in
  let t =
    Stats.Table.create ~title:"automatic annotation of plain sources"
      ~headers:
        [
          "benchmark"; "par calls (local)"; "checks (local)";
          "par calls (analysis)"; "checks (analysis)"; "discharged";
          "fixpoint iters"; "preds reached";
        ]
      ~aligns:
        [
          Stats.Table.Left; Right; Right; Right; Right; Right; Right; Right;
        ]
      ()
  in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        [
          r.a_name;
          Stats.Table.cell_int r.par_off;
          Stats.Table.cell_int r.checks_off;
          Stats.Table.cell_int r.par_on;
          Stats.Table.cell_int r.checks_on;
          Stats.Table.cell_int r.discharged;
          Stats.Table.cell_int r.iterations;
          Printf.sprintf "%d/%d" r.reached r.predicates;
        ])
    rows;
  Stats.Table.print t;
  write_annotation_json "BENCH_analysis.json" rows;
  Format.printf
    "Checks the hand annotations would need at run time are discharged@.\
     statically when the analysis proves groundness/independence at the@.\
     call pattern; groups the local annotator abandons (too many checks)@.\
     become unconditional CGEs.  Recorded to BENCH_analysis.json.@."

(* ------------------------------------------------------------------ *)
(* Tracecheck overhead: how much slower is generate-and-check than     *)
(* plain generation?  Generation is timed fresh (never from the memo)  *)
(* so the ratio compares like with like; recorded to                   *)
(* BENCH_tracecheck.json.                                              *)

type tracecheck_row = {
  t_label : string;
  t_accesses : int;
  t_syncs : int;
  t_violations : int;
  gen_s : float;
  check_s : float;
}

let write_tracecheck_json path rows =
  let row r =
    J.Obj
      [
        ("label", J.String r.t_label);
        ("accesses", J.Int r.t_accesses);
        ("syncs", J.Int r.t_syncs);
        ("violations", J.Int r.t_violations);
        ("generate_s", J.Float r.gen_s);
        ("check_s", J.Float r.check_s);
        ( "overhead",
          J.Float (if r.gen_s > 0. then r.check_s /. r.gen_s else 0.) );
      ]
  in
  write_json path
    (J.Obj
       [
         ("schema", J.String "rapwam-tracecheck/1");
         ("traces", J.List (List.map row rows));
       ])

let tracecheck setup =
  section "Tracecheck: happens-before checker overhead";
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let row b n_pes =
    let label =
      if n_pes = 0 then Printf.sprintf "%s/wam" b.Benchlib.Programs.name
      else Printf.sprintf "%s/rapwam@%dpe" b.Benchlib.Programs.name n_pes
    in
    let r, gen_s =
      timed (fun () ->
          if n_pes = 0 then Benchlib.Runner.run_wam b
          else Benchlib.Runner.run_rapwam ~n_pes b)
    in
    let s, check_s =
      timed (fun () -> Tracecheck.check_buffer r.Benchlib.Runner.trace)
    in
    {
      t_label = label;
      t_accesses = s.Tracecheck.accesses;
      t_syncs = s.Tracecheck.syncs;
      t_violations = s.Tracecheck.n_violations;
      gen_s;
      check_s;
    }
  in
  let rows =
    List.concat_map
      (fun b -> List.map (row b) [ 0; 1; 4; 8 ])
      setup.benchmarks
  in
  let t =
    Stats.Table.create ~title:"checker cost vs trace generation"
      ~headers:
        [ "trace"; "accesses"; "syncs"; "violations"; "gen (s)";
          "check (s)"; "overhead" ]
      ~aligns:
        [ Stats.Table.Left; Stats.Table.Right; Stats.Table.Right;
          Stats.Table.Right; Stats.Table.Right; Stats.Table.Right;
          Stats.Table.Right ]
      ()
  in
  List.iter
    (fun r ->
      Stats.Table.add_row t
        [
          r.t_label;
          Stats.Table.cell_int r.t_accesses;
          Stats.Table.cell_int r.t_syncs;
          Stats.Table.cell_int r.t_violations;
          Printf.sprintf "%.3f" r.gen_s;
          Printf.sprintf "%.3f" r.check_s;
          (if r.gen_s > 0. then Printf.sprintf "%.2fx" (r.check_s /. r.gen_s)
           else "-");
        ])
    rows;
  Stats.Table.print t;
  write_tracecheck_json "BENCH_tracecheck.json" rows;
  let dirty = List.filter (fun r -> r.t_violations > 0) rows in
  if dirty = [] then
    Format.printf
      "All traces race-free and invariant-clean; checker overhead@.\
       recorded to BENCH_tracecheck.json.@."
  else
    Format.printf "WARNING: %d trace(s) had violations.@."
      (List.length dirty)

(* ------------------------------------------------------------------ *)
(* Costan: static per-predicate cost bounds validated against traced   *)
(* reality, plus the Figure-2 deriv sweep with granularity control on  *)
(* and off.  Recorded to BENCH_costan.json.                            *)

let costan_accepted_ratio = 2.0
let costan_threshold = 150

(* Distance from a measured count to a predicted [lo, hi] interval, as
   a ratio: 1.0 inside the interval, endpoint/measured (or its
   inverse) outside. *)
let interval_ratio ~lo ~hi measured =
  if measured >= lo && measured <= hi then 1.0
  else if measured < lo then float_of_int lo /. float_of_int (max 1 measured)
  else float_of_int measured /. float_of_int (max 1 hi)

type costan_area = {
  ca_area : string;
  ca_lo : int;
  ca_hi : int;
  ca_mid : int;
  ca_measured : int;
  ca_ratio : float;
}

type costan_row = {
  k_name : string;
  k_class : string;
  k_pred_steps : int option;  (** predicted first-solution inferences *)
  k_steps : int;  (** measured inferences *)
  k_reason : string;  (** why unpredicted ("" when predicted) *)
  k_areas : costan_area list;
  k_ok : bool;  (** every area within the accepted ratio *)
}

let costan_row (b : Benchlib.Programs.benchmark) =
  let db = Prolog.Database.of_string b.Benchlib.Programs.src in
  let an = Costan.Analyze.analyze db in
  let goal = Analysis.Analyze.entry_of_string b.Benchlib.Programs.query in
  let cls =
    match Analysis.Depgraph.goal_key db goal with
    | Some key -> (
      match Costan.Analyze.find an key with
      | Some p -> p.Costan.Analyze.cls
      | None -> Costan.Domain.Unknown)
    | None -> Costan.Domain.Unknown
  in
  let r = wam_run b in
  match Costan.Eval.predict an goal with
  | Error reason ->
    {
      k_name = b.Benchlib.Programs.name;
      k_class = Costan.Domain.cls_name cls;
      k_pred_steps = None;
      k_steps = r.Benchlib.Runner.inferences;
      k_reason = reason;
      k_areas = [];
      k_ok = true (* honesty: no claim, nothing to be wrong about *);
    }
  | Ok p ->
    let areas =
      List.filter_map
        (fun area ->
          let i = p.Costan.Eval.p_refs.(Trace.Area.to_int area) in
          let measured =
            Trace.Areastats.refs r.Benchlib.Runner.area_stats area
          in
          if measured = 0 && Costan.Domain.is_zero i then None
          else
            Some
              {
                ca_area = Trace.Area.name area;
                ca_lo = i.Costan.Domain.lo;
                ca_hi = i.Costan.Domain.hi;
                ca_mid = Costan.Domain.mid i;
                ca_measured = measured;
                ca_ratio =
                  interval_ratio ~lo:i.Costan.Domain.lo
                    ~hi:i.Costan.Domain.hi measured;
              })
        Trace.Area.all
    in
    {
      k_name = b.Benchlib.Programs.name;
      k_class = Costan.Domain.cls_name cls;
      k_pred_steps = Some (Costan.Domain.mid p.Costan.Eval.p_steps);
      k_steps = r.Benchlib.Runner.inferences;
      k_reason = "";
      k_areas = areas;
      k_ok =
        List.for_all (fun a -> a.ca_ratio <= costan_accepted_ratio) areas;
    }

(* The deriv granularity sweep: both arms re-annotate the parsed
   database (so auto-parallelization is identical) and differ only in
   the cost oracle. *)
let granularity_transform ?threshold db =
  let granularity =
    Option.map
      (fun th ->
        let an = Costan.Analyze.analyze db in
        Costan.Analyze.annotator an ~threshold:th)
      threshold
  in
  Prolog.Annotate.database ?granularity db

type costan_sweep_point = {
  s_pes : int;
  s_parcalls_off : int;
  s_parcalls_on : int;
  s_refs_off : int;
  s_refs_on : int;
  s_agree : bool;
}

let write_costan_json path rows sweep gran_rows equal =
  let area a =
    J.Obj
      [
        ("area", J.String a.ca_area);
        ("lo", J.Int a.ca_lo);
        ("hi", J.Int a.ca_hi);
        ("mid", J.Int a.ca_mid);
        ("measured", J.Int a.ca_measured);
        ("ratio", J.Float a.ca_ratio);
      ]
  in
  let row r =
    J.Obj
      ([ ("name", J.String r.k_name); ("class", J.String r.k_class) ]
      @ (match r.k_pred_steps with
        | Some s -> [ ("predicted_steps", J.Int s) ]
        | None -> [ ("unpredicted", J.String r.k_reason) ])
      @ [
          ("measured_steps", J.Int r.k_steps);
          ("ok", J.Bool r.k_ok);
          ("areas", J.List (List.map area r.k_areas));
        ])
  in
  let point s =
    J.Obj
      [
        ("pes", J.Int s.s_pes);
        ("parcalls_off", J.Int s.s_parcalls_off);
        ("parcalls_on", J.Int s.s_parcalls_on);
        ("refs_off", J.Int s.s_refs_off);
        ("refs_on", J.Int s.s_refs_on);
        ("answers_agree", J.Bool s.s_agree);
      ]
  in
  let gran (name, off, on, agree) =
    J.Obj
      [
        ("name", J.String name);
        ("parcalls_off", J.Int off);
        ("parcalls_on", J.Int on);
        ("answers_agree", J.Bool agree);
      ]
  in
  write_json path
    (J.Obj
       [
         ("schema", J.String "rapwam-costan/1");
         ("accepted_ratio", J.Float costan_accepted_ratio);
         ("granularity_threshold", J.Int costan_threshold);
         ("benchmarks", J.List (List.map row rows));
         ("deriv_sweep", J.List (List.map point sweep));
         ("granularity", J.List (List.map gran gran_rows));
         ("answers_equal_all_benchmarks", J.Bool equal);
       ])

let costan setup =
  section "Costan: static cost bounds vs traced reality";
  let benches = setup.benchmarks @ Benchlib.Large.population () in
  let rows = List.map costan_row benches in
  let t =
    Stats.Table.create
      ~title:
        "per-benchmark prediction vs sequential WAM trace (steps = \
         inferences)"
      ~headers:
        [ "benchmark"; "class"; "steps pred"; "steps meas"; "worst area";
          "ratio"; "ok" ]
      ~aligns:
        [ Stats.Table.Left; Stats.Table.Left; Stats.Table.Right;
          Stats.Table.Right; Stats.Table.Left; Stats.Table.Right;
          Stats.Table.Left ]
      ()
  in
  List.iter
    (fun r ->
      let worst =
        List.fold_left
          (fun acc a ->
            match acc with
            | Some w when w.ca_ratio >= a.ca_ratio -> acc
            | _ -> Some a)
          None r.k_areas
      in
      Stats.Table.add_row t
        [
          r.k_name;
          r.k_class;
          (match r.k_pred_steps with
          | Some s -> string_of_int s
          | None -> "(" ^ r.k_reason ^ ")");
          Stats.Table.cell_int r.k_steps;
          (match worst with Some a -> a.ca_area | None -> "-");
          (match worst with
          | Some a -> Printf.sprintf "%.2f" a.ca_ratio
          | None -> "-");
          (if r.k_ok then "yes" else "NO");
        ])
    rows;
  Stats.Table.print t;
  (* granularity on/off: answers must be identical everywhere *)
  let on_transform = granularity_transform ~threshold:costan_threshold in
  let off_transform = granularity_transform ?threshold:None in
  let gran_rows =
    List.map
      (fun b ->
        let off =
          Benchlib.Runner.run_rapwam ~n_pes:4 ~transform:off_transform b
        in
        let on =
          Benchlib.Runner.run_rapwam ~n_pes:4 ~transform:on_transform b
        in
        let ok = Benchlib.Runner.answers_agree off on in
        if not ok then
          Format.printf "WARNING: %s answers differ with granularity on!@."
            b.Benchlib.Programs.name;
        ( b.Benchlib.Programs.name,
          off.Benchlib.Runner.parcalls,
          on.Benchlib.Runner.parcalls,
          ok ))
      benches
  in
  let equal = List.for_all (fun (_, _, _, ok) -> ok) gran_rows in
  let gt =
    Stats.Table.create
      ~title:"granularity on/off at 4 PEs (answers must not change)"
      ~headers:[ "benchmark"; "parcalls off"; "parcalls on"; "answers" ]
      ()
  in
  List.iter
    (fun (name, off, on, ok) ->
      Stats.Table.add_row gt
        [
          name;
          Stats.Table.cell_int off;
          Stats.Table.cell_int on;
          (if ok then "agree" else "DIFFER");
        ])
    gran_rows;
  Stats.Table.print gt;
  (* the Figure-2 sweep on deriv, granularity on vs off *)
  let deriv =
    List.find (fun b -> b.Benchlib.Programs.name = "deriv") setup.benchmarks
  in
  let sweep =
    List.map
      (fun n ->
        let off =
          Benchlib.Runner.run_rapwam ~n_pes:n ~transform:off_transform deriv
        in
        let on =
          Benchlib.Runner.run_rapwam ~n_pes:n ~transform:on_transform deriv
        in
        {
          s_pes = n;
          s_parcalls_off = off.Benchlib.Runner.parcalls;
          s_parcalls_on = on.Benchlib.Runner.parcalls;
          s_refs_off = off.Benchlib.Runner.data_refs;
          s_refs_on = on.Benchlib.Runner.data_refs;
          s_agree = Benchlib.Runner.answers_agree off on;
        })
      [ 1; 2; 4; 8 ]
  in
  let st =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "deriv, granularity threshold %d: parcalls and work vs PEs"
           costan_threshold)
      ~headers:
        [ "PEs"; "parcalls off"; "parcalls on"; "refs off"; "refs on";
          "answers" ]
      ()
  in
  List.iter
    (fun s ->
      Stats.Table.add_row st
        [
          string_of_int s.s_pes;
          Stats.Table.cell_int s.s_parcalls_off;
          Stats.Table.cell_int s.s_parcalls_on;
          Stats.Table.cell_int s.s_refs_off;
          Stats.Table.cell_int s.s_refs_on;
          (if s.s_agree then "agree" else "DIFFER");
        ])
    sweep;
  Stats.Table.print st;
  write_costan_json "BENCH_costan.json" rows sweep gran_rows equal;
  Format.printf
    "Predicted inference counts are exact for every benchmark whose@.\
     recursion the analyzer can class; per-area reference counts fall@.\
     inside the predicted intervals.  Granularity control trades@.\
     parcalls for sequential execution of provably-small goals without@.\
     changing any answer.  Recorded to BENCH_costan.json.@."

(* ------------------------------------------------------------------ *)
(* The query server: three-phase zipfian traffic (memo off / cold /   *)
(* warm) over the shared answer table, answers cross-checked against  *)
(* direct engine runs, measured latency compared with the M/G/1       *)
(* model.  Recorded to BENCH_server.json.                             *)

let server setup =
  section "query server: zipfian traffic with shared answer memoing";
  let params =
    Server.Harness.default_params ~quick:setup.quick ()
  in
  let params = { params with Server.Harness.workers = setup.jobs } in
  let outcome =
    Server.Harness.run ~progress:(fun m -> Format.eprintf "%s@." m) params
  in
  Format.printf "%a" Server.Report.pp outcome;
  Format.printf
    "invariants: answers_equal %b, hit_rate_ok %b, warm_speedup_ok %b, \
     p99_finite %b, mg1_ratio_ok %b@."
    outcome.Server.Harness.o_answers_equal
    (Server.Harness.hit_rate_ok outcome)
    (Server.Harness.warm_speedup_ok outcome)
    (Server.Harness.p99_finite outcome)
    (Server.Harness.mg1_ratio_ok outcome);
  Server.Report.write_json "BENCH_server.json" outcome;
  Format.printf
    "A warm shared answer table turns the skewed tail of the zipfian@.\
     mix into table lookups: the warm pass outruns the memo-off pass@.\
     while serving bit-identical answers.  Recorded to BENCH_server.json.@."

(* ------------------------------------------------------------------ *)
(* Availability: the same zipfian stream served under a deterministic  *)
(* fault barrage with full supervision (deadline + retries, breaker,   *)
(* crash containment), then warm, then snapshot -> restart.  The gates *)
(* CI greps from BENCH_chaos.json: availability >= 0.95, non-shed      *)
(* answers equal direct runs, restart hit rate within 5 points of the  *)
(* pre-restart warm rate.                                              *)

let availability setup =
  section "availability: supervised serving under a fault barrage";
  let faults =
    match
      Resilience.Fault.of_spec
        "sim-step:eio@3,sim-step:stall@7,cell-start:crash@11,sim-step:crash@23"
    with
    | Ok p -> p
    | Error e -> failwith ("availability: bad fault plan: " ^ e)
  in
  let params =
    {
      (Server.Harness.default_params ~quick:setup.quick ()) with
      Server.Harness.workers = setup.jobs;
      faults = Some faults;
      policy =
        Server.Supervise.policy ~deadline_s:5.0 ~retries:2
          ~breaker:Server.Supervise.breaker_default ();
    }
  in
  let chaos =
    Server.Harness.run_chaos ~progress:(fun m -> Format.eprintf "%s@." m)
      params
  in
  Format.printf "%a" Server.Report.pp_chaos chaos;
  let gates =
    [
      ("availability_ok", Server.Harness.availability_ok chaos);
      ("answers_equal", Server.Harness.chaos_answers_ok chaos);
      ("warm_restart_ok", Server.Harness.warm_restart_ok chaos);
    ]
  in
  Format.printf "gates: %s@."
    (String.concat ", "
       (List.map (fun (n, ok) -> Printf.sprintf "%s %b" n ok) gates));
  Server.Report.write_chaos_json "BENCH_chaos.json" chaos;
  Format.printf
    "Two injected crashes, a stall and an I/O error cost the stream@.\
     at most its faulted requests: the supervisor retries transients,@.\
     contains crashes to their request, and hot-restarts the memo from@.\
     a CRC-framed snapshot.  Recorded to BENCH_chaos.json.@.";
  let failed = List.filter (fun (_, ok) -> not ok) gates in
  if failed <> [] then begin
    List.iter
      (fun (n, _) -> Format.eprintf "availability: gate failed: %s@." n)
      failed;
    exit 4
  end

(* ------------------------------------------------------------------ *)
(* Certification: refmap, detan and bindan through the one harness --  *)
(* each benchmark at 1/4/8 PEs against the analysis' trace-replay      *)
(* oracle, answer comparison, wamlint and tracecheck.  Where the       *)
(* analysis compiles a variant (detan's det plan, bindan's bind plan)  *)
(* the cache simulator prices the base and variant traces of those     *)
(* same runs as a Figure-4 traffic-ratio delta (hybrid, 1024 words,    *)
(* best allocation).  Recorded to BENCH_<analysis>.json.               *)

let certification (module A : Certification.ANALYSIS) setup =
  let module H = Certification.Make (A) in
  section (A.name ^ ": " ^ A.doc);
  let price n_pes buf =
    let m, _ =
      Cachesim.Multi.simulate_best ~kind:Cachesim.Protocol.Hybrid
        ~cache_words:1024 ~n_pes:(max n_pes 1) buf
    in
    (Cachesim.Metrics.traffic_ratio m, m.Cachesim.Metrics.bus_words)
  in
  let priced =
    List.map
      (fun (b : Benchlib.Programs.benchmark) ->
        let points = ref [] in
        let observe ~n_pes ~base ~variant =
          Option.iter
            (fun v ->
              points := (n_pes, price n_pes base, price n_pes v) :: !points)
            variant
        in
        let r = H.run ~observe b in
        H.pp_report ~verbose:false Format.std_formatter r;
        (r, List.rev !points))
      setup.benchmarks
  in
  let reports = List.map fst priced in
  let all f = List.for_all f reports in
  Format.printf
    "verdicts: oracle_ok %b, answers_ok %b, tracecheck_ok %b, lint_clean %b, \
     audit_ok %b@."
    (all (fun r -> r.oracle_ok))
    (all (fun r -> r.answers_ok))
    (all (fun r -> r.trace_ok))
    (all (fun r -> r.lint_clean))
    (all (fun r -> r.audit_ok));
  let traffic =
    match A.variant with
    | None -> []
    | Some (label, _) ->
      Format.printf
        "@.Figure-4 traffic ratios, base -> %s; bus words in brackets (the@.\
         elided references are the best-cached ones, so the ratio can rise@.\
         while traffic falls):@."
        label;
      List.iter
        (fun ((r : _ Certification.report), points) ->
          Format.printf "  %-12s %s@." r.front.bench.name
            (String.concat "  "
               (List.map
                  (fun (n_pes, (base, bbus), (v, vbus)) ->
                    Printf.sprintf "%dpe %.3f -> %.3f [%d -> %dw]" n_pes base v
                      bbus vbus)
                  points)))
        priced;
      let point (n_pes, (base, bbus), (v, vbus)) =
        J.Obj
          [
            ("pes", J.Int n_pes);
            ("base_traffic_ratio", J.Float base);
            (label ^ "_traffic_ratio", J.Float v);
            ("delta", J.Float (v -. base));
            ("base_bus_words", J.Int bbus);
            (label ^ "_bus_words", J.Int vbus);
          ]
      in
      [
        ( "traffic",
          J.List
            (List.map
               (fun ((r : _ Certification.report), points) ->
                 J.Obj
                   [
                     ("bench", J.String r.front.bench.name);
                     ("points", J.List (List.map point points));
                   ])
               priced) );
      ]
  in
  let file = "BENCH_" ^ A.name ^ ".json" in
  write_json file
    (J.Obj
       ([
          ("schema", J.String ("rapwam-" ^ A.name ^ "/1"));
          ("benchmarks", H.json_of_reports reports);
        ]
       @ traffic));
  Format.printf "Recorded to %s.@." file

let refmap = certification (module Refmap.Instance)
let detan = certification (module Detan.Instance)
let bindan = certification (module Bindan.Instance)

(* ------------------------------------------------------------------ *)
(* Pre-warming: the (benchmark, PE-count) emulation runs each          *)
(* experiment reads through [rapwam_run]/[wam_run] (0 = WAM), so the   *)
(* harness can generate them on the engine's domain pool before the    *)
(* sequential, deterministic printing starts.                          *)

let experiment_names =
  [
    "table1"; "table2"; "table3"; "figure2"; "figure2-all"; "figure4";
    "mlips"; "timing"; "timing-integrated"; "annotation"; "ablation-tags";
    "ablation-sched"; "ablation-line"; "ablation-alloc";
    "ablation-granularity"; "tracecheck"; "costan"; "server"; "refmap";
    "detan"; "bindan"; "availability";
  ]

let rec pairs_for setup = function
  | "all" -> List.concat_map (pairs_for setup) experiment_names
  | "table2" | "timing" | "timing-integrated" ->
    List.concat_map (fun b -> [ (b, 0); (b, 8) ]) setup.benchmarks
  | "figure2" -> (
    match
      List.find_opt
        (fun b -> b.Benchlib.Programs.name = "deriv")
        setup.benchmarks
    with
    | Some d -> (d, 0) :: List.map (fun n -> (d, n)) setup.fig2_pes
    | None -> [])
  | "figure2-all" ->
    List.concat_map
      (fun b -> List.map (fun n -> (b, n)) [ 0; 1; 2; 4; 8; 16 ])
      setup.benchmarks
  | "table3" ->
    List.map (fun b -> (b, 0)) (Benchlib.Large.population ())
    @ List.map
        (fun n -> (Benchlib.Inputs.benchmark n, 0))
        [ "deriv"; "tak"; "qsort" ]
  | "figure4" ->
    List.concat_map
      (fun b -> List.map (fun n -> (b, n)) fig4_pes)
      setup.benchmarks
  | "mlips" | "ablation-tags" | "ablation-line" | "ablation-alloc" ->
    List.map (fun b -> (b, 8)) setup.benchmarks
  | "ablation-sched" ->
    List.map (fun n -> (Benchlib.Inputs.benchmark n, 0)) [ "deriv"; "qsort" ]
  | "costan" ->
    (* the validation runs are plain sequential WAM traces; the
       granularity on/off runs bypass the memo (transformed programs) *)
    List.map (fun b -> (b, 0)) (setup.benchmarks @ Benchlib.Large.population ())
  (* "tracecheck" deliberately contributes nothing: it times fresh
     generation, so pre-warming would make the overhead ratio lie.
     "refmap", "detan" and "bindan" contribute nothing either: their
     runs use an annotation transform, and transformed programs bypass
     the run memo *)
  | _ -> []

let prewarm setup names =
  prewarm_runs setup (List.concat_map (pairs_for setup) names)

(* ------------------------------------------------------------------ *)

let all setup =
  table1 setup;
  table2 setup;
  figure2 setup;
  figure2_all setup;
  table3 setup;
  figure4 setup;
  mlips setup;
  timing setup;
  timing_integrated setup;
  ablation_tags setup;
  ablation_sched setup;
  ablation_line setup;
  ablation_alloc setup;
  ablation_granularity setup;
  annotation setup;
  tracecheck setup;
  costan setup;
  refmap setup;
  detan setup;
  bindan setup;
  server setup;
  availability setup
