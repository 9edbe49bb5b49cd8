(* The per-layer ledger a traced run ends with: every layer measured
   separately on the workload's own programs and queries, so that each
   traced run reports every per-layer metric.  Each step is a span
   around one public call into a layer.

   Steps, per (program, query):
   - the static front end ({!Frontend});
   - a sequential WAM run and RAP-WAM runs at 1, 4 and 8 PEs, all
     into a [Buffer_sink], and the 8-PE trace replayed into a fresh
     buffer and into [Trace.Sink.null];
   - [Cachesim.Multi.simulate_best] over the 8-PE trace per protocol,
     at 1024 words, and one [Engine.Sweep.run] over the same cells;
   - a miss taken apart as [Serve] runs it: parse the server's
     database, compile, [Wam.Seq.run_all], plus the admission verdict.
   Then one supervised server loads the workload's database and serves
   the queries cold, then hot, alternating with the same keys made by
   [Memo.Canon.key_of_query] and looked up by [Memo.Table.find]. *)

type input = {
  benchmarks : Benchlib.Programs.benchmark list;
  server_src : string;  (** the database the ledger's server loads *)
  reps : int;  (** times the steps are repeated *)
}

(* The requests behind the memo and server metrics: the workload's
   traced passes, if it serves, and the ledger server's first cold and
   first hot batch. *)
type stream = {
  mutable hits : int;
  mutable pooled : int;
  mutable waves : int;
  mutable services : float list;  (** execution times of the misses *)
  mutable wait_total : float;  (** latency minus service, executed requests *)
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable inserts : int;
  mutable duplicates : int;
  mutable evictions : int;
}

let stream () =
  { hits = 0; pooled = 0; waves = 0; services = []; wait_total = 0.; memo_hits = 0;
    memo_misses = 0; inserts = 0; duplicates = 0; evictions = 0 }

let note_response st (r : Server.Supervise.response) =
  let rs = r.Server.Supervise.sv in
  if rs.Server.Serve.rs_lane <> Server.Serve.Hit && rs.Server.Serve.rs_error = None then begin
    st.services <- rs.Server.Serve.rs_service_s :: st.services;
    st.wait_total <- st.wait_total +. rs.Server.Serve.rs_latency_s -. rs.Server.Serve.rs_service_s
  end

(* Add a supervisor's counts, and what its table did between two
   readings of the table's totals. *)
let note_server st sup ~(before : Memo.Table.totals) ~(after : Memo.Table.totals) =
  let s = Server.Supervise.stats sup in
  st.hits <- st.hits + s.Server.Supervise.hits;
  st.pooled <- st.pooled + s.Server.Supervise.pooled;
  st.waves <- st.waves + s.Server.Supervise.waves;
  st.memo_hits <- st.memo_hits + after.Memo.Table.hits - before.Memo.Table.hits;
  st.memo_misses <- st.memo_misses + after.Memo.Table.misses - before.Memo.Table.misses;
  st.inserts <- st.inserts + after.Memo.Table.inserts - before.Memo.Table.inserts;
  st.duplicates <- st.duplicates + after.Memo.Table.duplicates - before.Memo.Table.duplicates;
  st.evictions <- st.evictions + after.Memo.Table.evictions - before.Memo.Table.evictions

let of_benchmarks benchmarks =
  let srcs =
    List.sort_uniq compare (List.map (fun b -> b.Benchlib.Programs.src) benchmarks)
  in
  { benchmarks; server_src = String.concat "\n" srcs; reps = 1 }

let protocol_slug k =
  String.map (fun c -> if c = ' ' then '-' else c) (Cachesim.Protocol.kind_name k)

let protocols = Cachesim.Protocol.[ Write_in_broadcast; Hybrid; Write_through ]
let rap_pes = [ 1; 4; 8 ]

let span = Spans.with_

(* Accumulators: seconds and the work they bought. *)
type acc = { mutable s : float; mutable work : float }

let acc () = { s = 0.; work = 0. }

let add a s work =
  a.s <- a.s +. s;
  a.work <- a.work +. work

let timed a ~work name ?attrs f =
  let t0 = Measure.now () in
  let r = span ?attrs name f in
  add a (Measure.now () -. t0) (work r);
  r

(* A sweep's wall time minus the time its jobs account for. *)
let engine_overhead (o : Engine.Sweep.outcome) =
  o.Engine.Sweep.wall_s
  -. List.fold_left (fun s st -> s +. st.Engine.Report.job_wall_s) 0. o.Engine.Sweep.stages

let rate a = if a.s > 0. then a.work /. a.s else 0.
let per a = if a.work > 0. then a.s /. a.work else 0.

let run (inp : input) (stream : stream) (tally : Oracle.tally) =
  let parse = acc () and analysis = acc () and detan = acc () and bindan = acc () in
  let costan = acc () and compile = acc () in
  let wam = acc () and wam_mw = acc () in
  let rap = List.map (fun n -> (n, acc ())) rap_pes in
  let rap_mw = acc () and null8 = acc () and buf8 = acc () in
  let sim = List.map (fun k -> (k, acc ())) protocols in
  let engine_s = ref 0. in
  let miss_parse = acc () and miss_compile = acc () and miss_run = acc () in
  let trace_refs = ref 0 and bus_words = ref 0 and wait = ref 0 and idle = ref 0 in
  let server =
    Server.Serve.create
      (Server.Serve.config ~pes:1 ~workers:1
         ~memo:(Memo.Table.create ~capacity_words:(64 * 1024 * 1024 / 8) ())
         ~src:inp.server_src ())
  in
  for rep = 1 to inp.reps do
    List.iter
      (fun (b : Benchlib.Programs.benchmark) ->
        let src = b.Benchlib.Programs.src and query = b.Benchlib.Programs.query in
        let attrs = [ ("bench", b.Benchlib.Programs.name) ] in
        let fe = Frontend.run b in
        let t = fe.Frontend.times in
        add parse t.Frontend.parse_s 1.;
        add analysis t.Frontend.analysis_s 1.;
        add detan t.Frontend.detan_s 1.;
        add bindan t.Frontend.bindan_s 1.;
        add costan t.Frontend.costan_s 1.;
        add compile t.Frontend.compile_s 1.;
        (* the sequential WAM *)
        let seq_prog =
          span "wam.compile" (fun () ->
              Wam.Program.of_database ~parallel:false (Frontend.parse src) ~query ())
        in
        let buf = Trace.Sink.Buffer_sink.create ~capacity:(1 lsl 16) () in
        let mw0 = Measure.minor_words () in
        let result, _ =
          timed wam
            ~work:(fun (_, m) -> float_of_int (Wam.Machine.total_instr m))
            "wam.run" ~attrs
            (fun () -> Wam.Seq.run ~sink:(Trace.Sink.buffer buf) seq_prog)
        in
        add wam_mw (Measure.minor_words () -. mw0) (float_of_int (Measure.accesses buf));
        let var = b.Benchlib.Programs.answer_var in
        Oracle.record tally (Oracle.check_result query ~var result) (fun () ->
            "ledger wam answer " ^ b.Benchlib.Programs.name);
        (* RAP-WAM, traced into a buffer, then untraced *)
        let par_prog =
          span "wam.compile" (fun () ->
              Wam.Program.of_database ~parallel:true (Frontend.parse src) ~query ())
        in
        let trace8 = ref (Trace.Sink.Buffer_sink.create ()) in
        List.iter
          (fun (n, a) ->
            let buf = Trace.Sink.Buffer_sink.create ~capacity:(1 lsl 16) () in
            let mw0 = Measure.minor_words () in
            let t0 = Measure.now () in
            let result, machine =
              span "rapwam.run" ~attrs:(("pes", string_of_int n) :: attrs) (fun () ->
                  Rapwam.Sim.run ~sink:(Trace.Sink.buffer buf) ~n_workers:n par_prog)
            in
            let dt = Measure.now () -. t0 in
            let refs = float_of_int (Measure.accesses buf) in
            add a dt refs;
            Oracle.record tally (Oracle.check_result query ~var result) (fun () ->
                Printf.sprintf "ledger rapwam answer %s %dpe" b.Benchlib.Programs.name n);
            if n = 8 then begin
              add rap_mw (Measure.minor_words () -. mw0) refs;
              trace8 := buf;
              if rep = 1 then begin
                trace_refs := !trace_refs + int_of_float refs;
                Array.iter
                  (fun w ->
                    wait := !wait + w.Wam.Machine.wait_cycles;
                    idle := !idle + w.Wam.Machine.idle_cycles)
                  machine.Rapwam.Sim.m.Wam.Machine.workers
              end
            end)
          rap;
        let refs8 = float_of_int (Measure.accesses !trace8) in
        (* what retaining the trace costs per reference: the 8-PE trace
           replayed record by record into a fresh buffer and into
           [Sink.null], alternating, over at least 200,000 references
           each *)
        let replay sink_name sink =
          timed (if sink_name = "null" then null8 else buf8) ~work:(fun () -> refs8)
            "trace.replay" ~attrs:(("sink", sink_name) :: attrs)
            (fun () -> Trace.Sink.Buffer_sink.iter (Trace.Sink.emit sink) !trace8)
        in
        for _ = 1 to max 1 (200_000 / max 1 (int_of_float refs8)) do
          replay "buffer" (Trace.Sink.buffer (Trace.Sink.Buffer_sink.create ~capacity:(1 lsl 16) ()));
          replay "null" Trace.Sink.null
        done;
        (* the cache simulator and the engine over the 8-PE trace *)
        List.iter
          (fun (kind, a) ->
            let m, _ =
              timed a ~work:(fun _ -> refs8) "cachesim.simulate_best"
                ~attrs:(("protocol", protocol_slug kind) :: ("cache_words", "1024") :: attrs)
                (fun () ->
                  Cachesim.Multi.simulate_best ~line_words:4 ~kind ~cache_words:1024 ~n_pes:8 !trace8)
            in
            if rep = 1 then bus_words := !bus_words + m.Cachesim.Metrics.bus_words)
          sim;
        let o =
          span "engine.sweep" (fun () ->
              Engine.Sweep.run ~jobs:1
                ~traces:[ ((b.Benchlib.Programs.name, 8), !trace8) ]
                {
                  Engine.Sweep.benchmarks = [ b ];
                  pe_counts = [ 8 ];
                  protocols;
                  cache_sizes = [ 1024 ];
                  line_words = 4;
                  alloc = Engine.Sweep.Best;
                })
        in
        engine_s := !engine_s +. engine_overhead o;
        (* a miss, as the server runs it *)
        ignore (span "costan.verdict" (fun () -> Server.Serve.verdict server query));
        let db = timed miss_parse ~work:(fun _ -> 1.) "prolog.parse" (fun () ->
            Prolog.Database.of_string inp.server_src) in
        let prog =
          timed miss_compile ~work:(fun _ -> 1.) "wam.compile" (fun () ->
              Wam.Program.of_database ~parallel:false db ~query ())
        in
        let sols, _ =
          timed miss_run ~work:(fun _ -> 1.) "wam.run_all" ~attrs (fun () ->
              Wam.Seq.run_all ~max_solutions:1 prog)
        in
        Oracle.record tally (Oracle.check_answers query sols) (fun () ->
            "ledger run_all answer " ^ b.Benchlib.Programs.name))
      inp.benchmarks
  done;
  (* one supervised server: the queries cold, then once hot; these two
     batches join the stream *)
  let sup = Server.Supervise.create server in
  let memo = Option.get (Server.Serve.config_of server).Server.Serve.memo in
  let before = Memo.Table.totals memo in
  let seen = Oracle.cache () in
  let batch =
    List.mapi (fun i b -> { Server.Serve.rq_id = i; rq_query = b.Benchlib.Programs.query }) inp.benchmarks
  in
  let serve () =
    let rs = span "server.serve" (fun () -> Server.Supervise.serve sup batch) in
    List.iter (Oracle.check_response tally seen) rs;
    rs
  in
  let cold = serve () in
  let first_hot = serve () in
  List.iter (note_response stream) (cold @ first_hot);
  note_server stream sup ~before ~after:(Memo.Table.totals memo);
  (* hot: the all-hit batch, alternated with the same keys made and
     looked up directly (in a copy of the table, so the server's
     counts stay the server's), so the difference is the server's own
     cost *)
  let queries = List.map (fun rq -> rq.Server.Serve.rq_query) batch in
  let copy = Memo.Table.create ~capacity_words:0 () in
  let keys =
    List.filter_map
      (fun (r : Server.Supervise.response) ->
        match Memo.Canon.key_of_query r.Server.Supervise.sv.Server.Serve.rs_query with
        | Ok k ->
          ignore (Memo.Table.insert copy k r.Server.Supervise.sv.Server.Serve.rs_answers);
          Some k
        | Error _ -> None)
      cold
  in
  let hot = acc () and key = acc () and find = acc () in
  let n = float_of_int (List.length batch) in
  for _ = 1 to 200 do
    ignore (timed hot ~work:(fun _ -> n) "server.hot" serve);
    timed key ~work:(fun _ -> n) "memo.key_of_query" (fun () ->
        List.iter (fun q -> ignore (Memo.Canon.key_of_query q)) queries);
    timed find ~work:(fun _ -> n) "memo.find" (fun () ->
        List.iter (fun k -> ignore (Memo.Table.find copy k)) keys)
  done;
  let key_s = per key and find_s = per find in
  let ms a = per a *. 1e3 in
  let services = Array.of_list stream.services in
  let executed = float_of_int (Array.length services) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let count n = ("count", float_of_int n) in
  List.map
    (fun (name, (unit, v)) -> (name, unit, v))
    ([
       ("prolog.parse_ms", ("ms", ms parse));
       ("analysis.ms", ("ms", ms analysis));
       ("detan.ms", ("ms", ms detan));
       ("bindan.ms", ("ms", ms bindan));
       ("costan.analyze_ms", ("ms", ms costan));
       ("wam.compile_ms", ("ms", ms compile));
       ("wam.instr_per_s", ("instr/s", rate wam));
       ("wam.minor_words_per_ref", ("words/ref", wam_mw.s /. wam_mw.work));
     ]
    @ List.map (fun (n, a) -> (Printf.sprintf "rapwam.refs_per_s.pe%d" n, ("refs/s", rate a))) rap
    @ [
        ("rapwam.minor_words_per_ref", ("words/ref", rap_mw.s /. rap_mw.work));
        ("trace.ns_per_ref", ("ns", (buf8.s -. null8.s) /. buf8.work *. 1e9));
      ]
    @ List.map (fun (k, a) -> ("cachesim.refs_per_s." ^ protocol_slug k, ("refs/s", rate a))) sim
    @ [
        ("engine.overhead_s", ("s", !engine_s));
        ("memo.key_us", ("us", key_s *. 1e6));
        ("memo.find_us", ("us", find_s *. 1e6));
        ("server.batch_overhead_us", ("us", (per hot -. key_s -. find_s) *. 1e6));
        ("server.miss_parse_ms", ("ms", ms miss_parse));
        ("server.miss_compile_ms", ("ms", ms miss_compile));
        ("server.miss_run_ms", ("ms", ms miss_run));
        ("memo.hit_ratio", ("ratio", ratio stream.memo_hits (stream.memo_hits + stream.memo_misses)));
        ("memo.inserts", count stream.inserts);
        ("memo.evictions", count stream.evictions);
        ("memo.duplicates_per_insert", ("ratio", ratio stream.duplicates stream.inserts));
        ("server.service_p50_ms", ("ms", Measure.percentile services 50. *. 1e3));
        ("server.service_p99_ms", ("ms", Measure.percentile services 99. *. 1e3));
        ("server.wait_ms", ("ms", stream.wait_total /. executed *. 1e3));
        ("server.hits", count stream.hits);
        ("server.pooled", count stream.pooled);
        ("server.waves", count stream.waves);
        ("trace.refs", count !trace_refs);
        ("cachesim.bus_words", count !bus_words);
        ("rapwam.wait_cycles", count !wait);
        ("rapwam.idle_cycles", count !idle);
      ])
