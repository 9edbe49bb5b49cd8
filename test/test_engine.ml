(* The parallel sweep engine: pool/DAG semantics (ordering, retry,
   fault containment), the determinism rule (--jobs 1 and --jobs N
   byte-identical), and a qcheck round-trip of the trace persistence
   the engine leans on. *)

let qt = QCheck_alcotest.to_alcotest

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* ---------------- pool ---------------- *)

let test_pool_order () =
  let items = Array.init 100 Fun.id in
  let expected = Array.map (fun x -> x * x) items in
  List.iter
    (fun jobs ->
      let got = Engine.Pool.map ~jobs (fun x -> x * x) items in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d preserves order" jobs)
        expected got)
    [ 1; 2; 4; 7 ]

let test_pool_on_done () =
  let seen = ref 0 in
  let _ =
    Engine.Pool.map ~jobs:4
      ~on_done:(fun _ -> incr seen)
      (fun x -> x)
      (Array.init 50 Fun.id)
  in
  Alcotest.(check int) "every job reported" 50 !seen

(* ---------------- job retry ---------------- *)

let test_job_retries_once () =
  let attempts = Atomic.make 0 in
  let job =
    Engine.Job.make ~key:"flaky" (fun () ->
        if Atomic.fetch_and_add attempts 1 = 0 then failwith "transient"
        else 42)
  in
  let c = Engine.Job.run job in
  Alcotest.(check bool) "retried job succeeds" true (Engine.Job.ok c);
  Alcotest.(check int) "two attempts" 2 c.Engine.Job.attempts;
  match c.Engine.Job.outcome with
  | Ok v -> Alcotest.(check int) "value" 42 v
  | Error e -> Alcotest.failf "unexpected error %s" e

let test_job_fails_after_retry () =
  let attempts = Atomic.make 0 in
  let job =
    Engine.Job.make ~key:"broken" (fun () ->
        ignore (Atomic.fetch_and_add attempts 1);
        failwith "permanent")
  in
  let c = Engine.Job.run job in
  Alcotest.(check bool) "still failed" false (Engine.Job.ok c);
  Alcotest.(check int) "one retry happened" 2 (Atomic.get attempts);
  match c.Engine.Job.outcome with
  | Error e ->
    Alcotest.(check bool) "error mentions the exception" true
      (contains ~affix:"permanent" e)
  | Ok _ -> Alcotest.fail "expected an error"

(* ---------------- DAG fault containment ---------------- *)

let test_dag_fault_injection () =
  let bad_attempts = Atomic.make 0 in
  let dag =
    {
      Engine.Dag.produce =
        [
          ("good", fun () -> 10);
          ( "bad",
            fun () ->
              ignore (Atomic.fetch_and_add bad_attempts 1);
              failwith "boom" );
        ];
      consume =
        [
          ("c1", "good", fun a -> a + 1);
          ("c2", "bad", fun a -> a + 2);
          ("c3", "good", fun a -> a + 3);
          ("c4", "missing", fun a -> a);
        ];
    }
  in
  let cells, stages = Engine.Dag.run ~jobs:3 dag in
  Alcotest.(check int) "failed producer retried once" 2
    (Atomic.get bad_attempts);
  Alcotest.(check int) "all cells present" 4 (Array.length cells);
  (match cells.(0).Engine.Job.outcome with
  | Ok v -> Alcotest.(check int) "c1" 11 v
  | Error e -> Alcotest.failf "c1 failed: %s" e);
  (match cells.(1).Engine.Job.outcome with
  | Error e ->
    Alcotest.(check bool) "c2 blames its producer" true
      (contains ~affix:"bad" e && contains ~affix:"boom" e)
  | Ok _ -> Alcotest.fail "c2 should inherit the producer failure");
  (match cells.(2).Engine.Job.outcome with
  | Ok v -> Alcotest.(check int) "c3 unaffected" 13 v
  | Error e -> Alcotest.failf "c3 failed: %s" e);
  (match cells.(3).Engine.Job.outcome with
  | Error e ->
    Alcotest.(check bool) "c4 reports the missing producer" true
      (contains ~affix:"missing" e)
  | Ok _ -> Alcotest.fail "c4 should fail");
  match stages with
  | [ s1; s2 ] ->
    Alcotest.(check int) "stage1 failures counted" 1 s1.Engine.Report.failed;
    Alcotest.(check int) "stage2 failures counted" 2 s2.Engine.Report.failed
  | _ -> Alcotest.fail "expected two stage summaries"

let test_dag_consumer_failure_is_contained () =
  let dag =
    {
      Engine.Dag.produce = [ ("t", fun () -> 5) ];
      consume =
        [
          ("ok", "t", fun a -> a);
          ("bad", "t", fun _ -> failwith "cell crash");
          ("ok2", "t", fun a -> 2 * a);
        ];
    }
  in
  let cells, _ = Engine.Dag.run ~jobs:2 dag in
  Alcotest.(check bool) "first ok" true (Engine.Job.ok cells.(0));
  Alcotest.(check bool) "middle failed" false (Engine.Job.ok cells.(1));
  Alcotest.(check bool) "last ok" true (Engine.Job.ok cells.(2))

(* ---------------- sweep determinism ---------------- *)

let small_grid () =
  let by_name n =
    List.find
      (fun b -> b.Benchlib.Programs.name = n)
      (Benchlib.Inputs.small_benchmarks ())
  in
  {
    Engine.Sweep.benchmarks = [ by_name "deriv"; by_name "matrix" ];
    pe_counts = [ 2 ];
    protocols =
      [ Cachesim.Protocol.Write_through; Cachesim.Protocol.Hybrid ];
    cache_sizes = [ 256; 1024 ];
    line_words = 4;
    alloc = Engine.Sweep.Default;
  }

let test_sweep_jobs_deterministic () =
  List.iter
    (fun grid ->
      let o1 = Engine.Sweep.run ~jobs:1 grid in
      let o4 = Engine.Sweep.run ~jobs:4 grid in
      Alcotest.(check int)
        "cell count" (Engine.Sweep.cells_of_grid grid)
        (List.length o1.Engine.Sweep.cells);
      Alcotest.(check string)
        "JSON byte-identical across --jobs"
        (Obs.Json.to_string (Engine.Results.to_json o1.Engine.Sweep.cells))
        (Obs.Json.to_string (Engine.Results.to_json o4.Engine.Sweep.cells));
      Alcotest.(check string)
        "CSV byte-identical across --jobs"
        (Engine.Results.to_csv ~areas:o1.Engine.Sweep.areas o1.Engine.Sweep.cells)
        (Engine.Results.to_csv ~areas:o4.Engine.Sweep.areas o4.Engine.Sweep.cells);
      List.iter
        (fun (c : Engine.Results.cell) ->
          match c.Engine.Results.metrics with
          | Ok _ -> ()
          | Error e ->
            Alcotest.failf "cell %s failed: %s"
              (Engine.Results.config_key c.Engine.Results.config)
              e)
        o4.Engine.Sweep.cells)
    [ small_grid (); { (small_grid ()) with Engine.Sweep.cache_sizes = [ 128; 256; 1024 ] } ]

let metrics = Alcotest.testable Cachesim.Metrics.pp ( = )

let test_sweep_matches_direct_simulation () =
  (* an engine cell = Cachesim.Multi.simulate on the same trace *)
  let bench =
    List.find
      (fun b -> b.Benchlib.Programs.name = "deriv")
      (Benchlib.Inputs.small_benchmarks ())
  in
  let r = Benchlib.Runner.run_rapwam ~n_pes:2 bench in
  let buf = r.Benchlib.Runner.trace in
  let grid =
    {
      (small_grid ()) with
      Engine.Sweep.benchmarks = [ bench ];
      protocols = [ Cachesim.Protocol.Hybrid ];
      cache_sizes = [ 512 ];
    }
  in
  let o =
    Engine.Sweep.run ~jobs:2 ~traces:[ (("deriv", 2), buf) ] grid
  in
  let expected =
    Cachesim.Multi.simulate ~line_words:4 ~kind:Cachesim.Protocol.Hybrid
      ~cache_words:512 ~n_pes:2 buf
  in
  (match o.Engine.Sweep.cells with
  | [ { Engine.Results.metrics = Ok got; _ } ] ->
    Alcotest.(check (float 1e-9))
      "traffic ratio agrees"
      (Cachesim.Metrics.traffic_ratio expected)
      (Cachesim.Metrics.traffic_ratio got);
    Alcotest.(check int)
      "bus words agree" expected.Cachesim.Metrics.bus_words
      got.Cachesim.Metrics.bus_words;
    Alcotest.check metrics "all ten counters agree" expected got
  | cells -> Alcotest.failf "expected one ok cell, got %d" (List.length cells));
  (* the Figure-4 protocols under Best at two sizes: six cells on two
     domains, all reading one prepared trace *)
  let fig4 =
    Cachesim.Protocol.[ Write_in_broadcast; Hybrid; Write_through ]
  in
  let o =
    Engine.Sweep.run ~jobs:2 ~traces:[ (("deriv", 2), buf) ]
      { grid with
        Engine.Sweep.protocols = fig4;
        cache_sizes = [ 256; 1024 ];
        alloc = Engine.Sweep.Best }
  in
  Alcotest.(check int) "six cells" 6 (List.length o.Engine.Sweep.cells);
  List.iter
    (fun (c : Engine.Results.cell) ->
      let cfg = c.Engine.Results.config in
      let expected =
        fst
          (Cachesim.Multi.simulate_best ~line_words:4 ~kind:cfg.Engine.Results.protocol
             ~cache_words:cfg.Engine.Results.cache_words ~n_pes:2 buf)
      in
      match c.Engine.Results.metrics with
      | Ok got -> Alcotest.check metrics (Engine.Results.config_key cfg) expected got
      | Error e -> Alcotest.failf "cell %s failed: %s" (Engine.Results.config_key cfg) e)
    o.Engine.Sweep.cells

let test_sweep_rejects_bad_grid () =
  (* a grid the simulator cannot run fails once, up front, instead of
     emulating every trace and then failing every cell *)
  let g = small_grid () in
  Engine.Sweep.check_grid { g with Engine.Sweep.pe_counts = [ 0; 62 ] };
  List.iter
    (fun (what, bad) ->
      match Engine.Sweep.run ~jobs:1 bad with
      | exception Invalid_argument msg ->
        if not (contains ~affix:"Sweep:" msg) then
          Alcotest.failf "%s: unexpected message %S" what msg
      | o ->
        Alcotest.failf "%s: ran %d cells instead of raising" what
          (List.length o.Engine.Sweep.cells))
    [
      ("size 63", { g with Engine.Sweep.cache_sizes = [ 256; 63 ] });
      ("size 0", { g with Engine.Sweep.cache_sizes = [ 0 ] });
      ("line 0", { g with Engine.Sweep.line_words = 0 });
      ("line 3", { g with Engine.Sweep.cache_sizes = [ 64 ]; line_words = 3 });
      ("line 3 dividing the size", { g with Engine.Sweep.cache_sizes = [ 96 ]; line_words = 3 });
      ("70 PEs", { g with Engine.Sweep.pe_counts = [ 2; 70 ] });
    ]

let test_sweep_area_invariant () =
  (* the per-area ledger the sweep keeps must cover the trace exactly:
     one row per area, and reads+writes summed across areas equal to
     the run's total reference count (the same trace replayed through
     Areastats directly) *)
  let bench =
    List.find
      (fun b -> b.Benchlib.Programs.name = "deriv")
      (Benchlib.Inputs.small_benchmarks ())
  in
  let grid =
    {
      (small_grid ()) with
      Engine.Sweep.benchmarks = [ bench ];
      protocols = [ Cachesim.Protocol.Hybrid ];
      cache_sizes = [ 512 ];
    }
  in
  let o = Engine.Sweep.run ~jobs:2 grid in
  let direct = Benchlib.Runner.run_rapwam ~n_pes:2 bench in
  match o.Engine.Sweep.areas with
  | [ ((name, pes), rows) ] ->
    Alcotest.(check string) "keyed by benchmark" "deriv" name;
    Alcotest.(check int) "keyed by PE count" 2 pes;
    Alcotest.(check int)
      "one row per area" (List.length Trace.Area.all) (List.length rows);
    let sum = List.fold_left (fun acc (_, (r, w)) -> acc + r + w) 0 rows in
    Alcotest.(check int)
      "areas reads+writes sum to total refs"
      direct.Benchlib.Runner.total_refs sum;
    List.iter
      (fun a ->
        let slug = Trace.Area.slug a in
        let r, w = List.assoc slug rows in
        Alcotest.(check int)
          (slug ^ " reads")
          (Trace.Areastats.reads direct.Benchlib.Runner.area_stats a)
          r;
        Alcotest.(check int)
          (slug ^ " writes")
          (Trace.Areastats.writes direct.Benchlib.Runner.area_stats a)
          w)
      Trace.Area.all
  | rows -> Alcotest.failf "expected one area row, got %d" (List.length rows)

(* A supplied trace with more PEs than its key fails the cells of that
   trace, each with the simulator's message, and no other cell. *)
let test_sweep_pe_bound_fails_only_its_cells () =
  let buf = Trace.Sink.Buffer_sink.create () in
  let sink = Trace.Sink.buffer buf in
  List.iter
    (fun (pe, addr) ->
      Trace.Sink.emit sink
        { Trace.Ref_record.pe; addr; area = Trace.Area.Heap; op = Trace.Ref_record.Read })
    [ (0, 8); (1, 16); (3, 24); (2, 32) ];
  let message =
    match
      Cachesim.Multi.simulate ~kind:Cachesim.Protocol.Hybrid ~cache_words:256 ~n_pes:2 buf
    with
    | exception Invalid_argument msg -> msg
    | _ -> Alcotest.fail "simulate accepted PE 3 with 2 caches"
  in
  let grid = { (small_grid ()) with Engine.Sweep.cache_sizes = [ 256 ] } in
  let o =
    Engine.Sweep.run ~jobs:2
      ~attempts:(Engine.Job.attempts ~backoff_s:0.001 2)
      ~traces:[ (("deriv", 2), buf) ]
      grid
  in
  let matrix =
    List.find (fun b -> b.Benchlib.Programs.name = "matrix") grid.Engine.Sweep.benchmarks
  in
  let matrix = (Benchlib.Runner.run_rapwam ~n_pes:2 matrix).Benchlib.Runner.trace in
  Alcotest.(check int) "every cell" 4 (List.length o.Engine.Sweep.cells);
  List.iter
    (fun (c : Engine.Results.cell) ->
      let cfg = c.Engine.Results.config in
      let key = Engine.Results.config_key cfg in
      match (cfg.Engine.Results.bench, c.Engine.Results.metrics) with
      | "deriv", Error e ->
        if not (contains ~affix:message e) then
          Alcotest.failf "%s: %S does not carry %S" key e message
      | "matrix", Ok got ->
        Alcotest.check metrics key
          (Cachesim.Multi.simulate ~line_words:4 ~kind:cfg.Engine.Results.protocol
             ~cache_words:256 ~n_pes:2 matrix)
          got
      | _, Ok _ -> Alcotest.failf "%s: expected an error" key
      | _, Error e -> Alcotest.failf "%s failed: %s" key e)
    o.Engine.Sweep.cells

(* The cells of a job do not depend on the order of the grid's sizes. *)
let test_sweep_sizes_in_any_order () =
  let grid = { (small_grid ()) with Engine.Sweep.alloc = Engine.Sweep.Best } in
  let render sizes =
    let o = Engine.Sweep.run ~jobs:1 { grid with Engine.Sweep.cache_sizes = sizes } in
    ( Obs.Json.to_string (Engine.Results.to_json o.Engine.Sweep.cells),
      Engine.Results.to_csv ~areas:o.Engine.Sweep.areas o.Engine.Sweep.cells )
  in
  let json, csv = render [ 64; 256; 1024 ] in
  List.iter
    (fun sizes ->
      let json', csv' = render sizes in
      Alcotest.(check string) "JSON byte-identical" json json';
      Alcotest.(check string) "CSV byte-identical" csv csv')
    [ [ 1024; 64; 256 ]; [ 256; 1024; 64 ] ]

(* A job whose size list is longer than one pass holds runs it as
   several passes; every cell equals its own one-size simulation. *)
let test_sweep_more_sizes_than_a_pass () =
  let bench =
    List.find
      (fun b -> b.Benchlib.Programs.name = "deriv")
      (Benchlib.Inputs.small_benchmarks ())
  in
  let buf = (Benchlib.Runner.run_rapwam ~n_pes:2 bench).Benchlib.Runner.trace in
  let sizes = List.init (Cachesim.Multi.max_sizes + 2) (fun i -> 4 * (i + 1)) in
  let grid =
    {
      (small_grid ()) with
      Engine.Sweep.benchmarks = [ bench ];
      protocols = [ Cachesim.Protocol.Write_in_broadcast ];
      cache_sizes = List.rev sizes;
      alloc = Engine.Sweep.Best;
    }
  in
  let o = Engine.Sweep.run ~jobs:1 ~traces:[ (("deriv", 2), buf) ] grid in
  Alcotest.(check int) "every size" (List.length sizes) (List.length o.Engine.Sweep.cells);
  List.iter
    (fun (c : Engine.Results.cell) ->
      let cfg = c.Engine.Results.config in
      let expected =
        fst
          (Cachesim.Multi.simulate_best ~line_words:4 ~kind:cfg.Engine.Results.protocol
             ~cache_words:cfg.Engine.Results.cache_words ~n_pes:2 buf)
      in
      match c.Engine.Results.metrics with
      | Ok got -> Alcotest.check metrics (Engine.Results.config_key cfg) expected got
      | Error e -> Alcotest.failf "cell %s failed: %s" (Engine.Results.config_key cfg) e)
    o.Engine.Sweep.cells

(* ---------------- tracefile round-trip (qcheck) ---------------- *)

let record_gen =
  QCheck.Gen.(
    map
      (fun (pe, addr, area_i, is_write) ->
        {
          Trace.Ref_record.pe;
          addr;
          area = Trace.Area.of_int area_i;
          op =
            (if is_write then Trace.Ref_record.Write
             else Trace.Ref_record.Read);
        })
      (quad
         (int_range 0 Trace.Ref_record.max_pe)
         (int_range 0 ((1 lsl 30) - 1))
         (int_range 0 (Trace.Area.count - 1))
         bool))

let prop_tracefile_roundtrip =
  QCheck.Test.make ~count:50 ~name:"tracefile write/read round-trip"
    (QCheck.make
       ~print:(fun rs ->
         String.concat ";"
           (List.map
              (fun r -> string_of_int (Trace.Ref_record.pack r))
              rs))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 0 400) record_gen))
    (fun records ->
      let buf = Trace.Sink.Buffer_sink.create () in
      let sink = Trace.Sink.buffer buf in
      List.iter (fun r -> Trace.Sink.emit sink r) records;
      let path = Filename.temp_file "engine_trace" ".bin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Trace.Tracefile.write path buf;
          let buf2 = Trace.Tracefile.read path in
          let words b =
            let acc = ref [] in
            Trace.Sink.Buffer_sink.iter_packed
              (fun w -> acc := w :: !acc)
              b;
            List.rev !acc
          in
          words buf = words buf2
          && Trace.Sink.Buffer_sink.length buf2 = List.length records))

(* ---------------- one attempt loop ---------------- *)

(* The same record drives a job with and without a timeout: a job that
   fails every attempt uses all three either way, and only an attempt
   that stalls past its timeout reports [timed_out]. *)
let test_job_attempts_with_and_without_timeout () =
  let failing () =
    let calls = Atomic.make 0 in
    let job =
      Engine.Job.make ~key:"always" (fun () ->
          ignore (Atomic.fetch_and_add calls 1);
          failwith "always")
    in
    (calls, job)
  in
  List.iter
    (fun (label, attempts) ->
      let calls, job = failing () in
      let c = Engine.Job.run ~attempts job in
      Alcotest.(check bool) (label ^ ": failed") false (Engine.Job.ok c);
      Alcotest.(check int) (label ^ ": attempts") 3 c.Engine.Job.attempts;
      Alcotest.(check int) (label ^ ": thunk calls") 3 (Atomic.get calls);
      Alcotest.(check bool) (label ^ ": not a timeout") false
        c.Engine.Job.timed_out)
    [
      ("no timeout", Engine.Job.attempts ~backoff_s:0.001 3);
      ("timeout", Engine.Job.attempts ~timeout_s:5. ~backoff_s:0.001 3);
    ];
  let stalled =
    Engine.Job.run
      ~attempts:(Engine.Job.attempts ~timeout_s:0.02 ~backoff_s:0.001 3)
      (Engine.Job.make ~key:"stalled" (fun () -> Unix.sleepf 0.2))
  in
  Alcotest.(check int) "stalled: attempts" 3 stalled.Engine.Job.attempts;
  Alcotest.(check bool) "stalled: timed out" true stalled.Engine.Job.timed_out

let suite =
  [
    Alcotest.test_case "pool: order-preserving map" `Quick test_pool_order;
    Alcotest.test_case "pool: on_done fires per job" `Quick test_pool_on_done;
    Alcotest.test_case "job: transient failure retried" `Quick
      test_job_retries_once;
    Alcotest.test_case "job: persistent failure captured" `Quick
      test_job_fails_after_retry;
    Alcotest.test_case "dag: failed producer poisons only dependents"
      `Quick test_dag_fault_injection;
    Alcotest.test_case "dag: failed consumer is one failed cell" `Quick
      test_dag_consumer_failure_is_contained;
    Alcotest.test_case "sweep: --jobs 1 vs --jobs 4 byte-identical" `Quick
      test_sweep_jobs_deterministic;
    Alcotest.test_case "sweep: cell equals direct simulation" `Quick
      test_sweep_matches_direct_simulation;
    Alcotest.test_case "sweep: per-area ledger covers the trace" `Quick
      test_sweep_area_invariant;
    Alcotest.test_case "sweep: invalid grid rejected before tracing" `Quick
      test_sweep_rejects_bad_grid;
    qt prop_tracefile_roundtrip;
    Alcotest.test_case "job: one attempt loop, with or without a timeout"
      `Quick test_job_attempts_with_and_without_timeout;
    Alcotest.test_case "sweep: a PE without a cache fails only its cells"
      `Quick test_sweep_pe_bound_fails_only_its_cells;
    Alcotest.test_case "sweep: sizes in any order give the same cells" `Quick
      test_sweep_sizes_in_any_order;
    Alcotest.test_case "sweep: more sizes than a pass holds" `Quick
      test_sweep_more_sizes_than_a_pass;
  ]
