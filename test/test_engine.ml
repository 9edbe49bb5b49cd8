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
  let grid = small_grid () in
  let o1 = Engine.Sweep.run ~jobs:1 grid in
  let o4 = Engine.Sweep.run ~jobs:4 grid in
  Alcotest.(check int)
    "cell count" (Engine.Sweep.cells_of_grid grid)
    (List.length o1.Engine.Sweep.cells);
  Alcotest.(check string)
    "JSON byte-identical across --jobs"
    (Engine.Results.to_json o1.Engine.Sweep.cells)
    (Engine.Results.to_json o4.Engine.Sweep.cells);
  Alcotest.(check string)
    "CSV byte-identical across --jobs"
    (Engine.Results.to_csv o1.Engine.Sweep.cells)
    (Engine.Results.to_csv o4.Engine.Sweep.cells);
  List.iter
    (fun (c : Engine.Results.cell) ->
      match c.Engine.Results.metrics with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "cell %s failed: %s"
          (Engine.Results.config_key c.Engine.Results.config)
          e)
    o4.Engine.Sweep.cells

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
  match o.Engine.Sweep.cells with
  | [ { Engine.Results.metrics = Ok got; _ } ] ->
    Alcotest.(check (float 1e-9))
      "traffic ratio agrees"
      (Cachesim.Metrics.traffic_ratio expected)
      (Cachesim.Metrics.traffic_ratio got);
    Alcotest.(check int)
      "bus words agree" expected.Cachesim.Metrics.bus_words
      got.Cachesim.Metrics.bus_words
  | cells -> Alcotest.failf "expected one ok cell, got %d" (List.length cells)

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
  ]
