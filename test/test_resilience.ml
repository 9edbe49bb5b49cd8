(* The resilience layer: CRC-32, atomic writes, the fault-injection
   plan, checksummed trace framing under damage, the checkpoint
   journal, watchdogged jobs, and crash/resume of a sweep.

   The site x kind matrix at the end is the acceptance bar: every
   fault kind at every registered site either recovers fully (the
   outcome is identical to a fault-free run) or fails with the typed
   {!Resilience.Fault.Injected} exception — never a hang, never a
   silently wrong result. *)

let qt = QCheck_alcotest.to_alcotest

module B = Trace.Sink.Buffer_sink
module F = Resilience.Fault

let read_all path = In_channel.with_open_bin path In_channel.input_all

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let overwrite path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let flip_byte s i = String.mapi (fun j c ->
    if j = i then Char.chr (Char.code c lxor 0x10) else c) s

(* nth occurrence (0-based) of [marker] in [s], or raise *)
let find_marker s marker n =
  let m = String.length marker in
  let rec go i left =
    if i + m > String.length s then failwith "marker not found"
    else if String.sub s i m = marker then
      if left = 0 then i else go (i + 1) (left - 1)
    else go (i + 1) left
  in
  go 0 n

let make_trace n =
  let buf = B.create () in
  let sink = Trace.Sink.buffer buf in
  for i = 0 to n - 1 do
    Trace.Sink.emit sink
      {
        Trace.Ref_record.pe = i mod 4;
        addr = Wam.Layout.heap_base (i mod 4) + (i mod 1000);
        area = Trace.Area.Heap;
        op =
          (if i mod 3 = 0 then Trace.Ref_record.Write
           else Trace.Ref_record.Read);
      }
  done;
  buf

let words b =
  let acc = ref [] in
  B.iter_packed (fun w -> acc := w :: !acc) b;
  List.rev !acc

let rec firstk k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: tl -> x :: firstk (k - 1) tl

let with_temp ext f =
  let path = Filename.temp_file "resilience" ext in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ---------------- crc32 ---------------- *)

let test_crc32_known_answer () =
  (* the IEEE/zlib check value *)
  Alcotest.(check int) "check string" 0xCBF43926
    (Resilience.Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Resilience.Crc32.string "")

let test_crc32_chaining () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Resilience.Crc32.string s in
  let k = 17 in
  let chained =
    Resilience.Crc32.string
      ~crc:(Resilience.Crc32.string (String.sub s 0 k))
      (String.sub s k (String.length s - k))
  in
  Alcotest.(check int) "incremental = one-shot" whole chained

(* ---------------- atomic writes ---------------- *)

let test_atomic_write_commits () =
  with_temp ".out" (fun path ->
      Resilience.Atomic_io.write_string path "hello";
      Alcotest.(check string) "committed" "hello" (read_all path))

let test_atomic_write_aborts_cleanly () =
  with_temp ".out" (fun path ->
      Resilience.Atomic_io.write_string path "original";
      let dir = Filename.dirname path in
      let entries_before = Sys.readdir dir in
      (match
         Resilience.Atomic_io.write_file path (fun oc ->
             output_string oc "half-writ";
             failwith "disk died")
       with
      | () -> Alcotest.fail "expected the writer exception to propagate"
      | exception Failure _ -> ());
      Alcotest.(check string) "old contents intact" "original" (read_all path);
      Alcotest.(check int) "no temp file left behind"
        (Array.length entries_before)
        (Array.length (Sys.readdir dir)))

(* ---------------- fault plans ---------------- *)

let test_fault_spec_roundtrip () =
  (match F.of_spec "cell-start:crash@2,trace-write:bit-flip" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok p ->
    let s = F.to_string p in
    Alcotest.(check bool) "spec mentions both faults" true
      (String.length s > 0));
  (match F.of_spec "no-such-site:crash" with
  | Ok _ -> Alcotest.fail "unregistered site accepted"
  | Error _ -> ());
  match (F.of_spec "seed:42", F.of_spec "seed:42", F.of_spec "seed:43") with
  | Ok a, Ok b, Ok c ->
    Alcotest.(check string) "seeded plans deterministic" (F.to_string a)
      (F.to_string b);
    Alcotest.(check bool) "different seeds differ" true
      (F.to_string a <> F.to_string c)
  | _ -> Alcotest.fail "seed spec rejected"

let test_fault_fires_once () =
  let p = F.make [ ("cell-start", F.Eio, 1) ] in
  Alcotest.(check bool) "occurrence 0 passes" true
    (F.fire (Some p) "cell-start" = None);
  (match F.fire (Some p) "cell-start" with
  | Some (F.Eio, 1) -> ()
  | _ -> Alcotest.fail "occurrence 1 should fire Eio");
  Alcotest.(check bool) "fires at most once" true
    (F.fire (Some p) "cell-start" = None);
  Alcotest.(check bool) "no plan, no fault" true (F.fire None "sim-step" = None)

let test_fault_spec_rejects_duplicates () =
  (* a site occurrence happens once, so two planned faults there can
     never both fire — the spec is rejected, naming both claimants *)
  (match F.of_spec "sim-step:eio@3,sim-step:crash@3" with
  | Ok _ -> Alcotest.fail "duplicate (site, occurrence) accepted"
  | Error e ->
    Alcotest.(check bool) "error says duplicate" true
      (contains ~affix:"duplicate" e);
    Alcotest.(check bool) "error names the site" true
      (contains ~affix:"sim-step" e));
  (* the literal same item twice is just as dead *)
  (match F.of_spec "cell-start:crash@5,cell-start:crash@5" with
  | Ok _ -> Alcotest.fail "repeated item accepted"
  | Error _ -> ());
  (* same occurrence at different sites is fine *)
  match F.of_spec "sim-step:eio@3,cell-start:eio@3" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "distinct sites rejected: %s" e

(* ---------------- framing under damage ---------------- *)

let prop_truncation_salvage =
  QCheck.Test.make ~count:40
    ~name:"tracefile: salvage after truncation is an exact prefix"
    QCheck.(pair (int_range 1 2500) (int_range 0 1_000_000))
    (fun (n, cut_seed) ->
      let buf = make_trace n in
      with_temp ".trace" (fun path ->
          Trace.Tracefile.write path buf;
          let full = read_all path in
          let size = String.length full in
          (* keep the 24-byte header, cut at least one body byte *)
          let cut = 24 + (cut_seed mod (size - 24)) in
          overwrite path (String.sub full 0 cut);
          let salvaged, damage = Trace.Tracefile.read_salvage path in
          let ow = words buf and sw = words salvaged in
          damage.Trace.Tracefile.truncated
          && List.length sw < n
          && sw = firstk (List.length sw) ow
          && Trace.Tracefile.lost damage = n - List.length sw))

let test_bitflip_salvage_resyncs () =
  (* three blocks; corrupt the middle one: exactly that block is
     skipped, the blocks before and after survive *)
  let n = (2 * Trace.Tracefile.block_words) + 500 in
  let buf = make_trace n in
  with_temp ".trace" (fun path ->
      Trace.Tracefile.write path buf;
      let full = read_all path in
      let second = find_marker full Trace.Tracefile.block_marker 1 in
      overwrite path (flip_byte full (second + 16 + 50));
      (* strict read reports the damage with its offset *)
      (match Trace.Tracefile.read path with
      | exception Trace.Tracefile.Trace_error { offset; reason } ->
        Alcotest.(check bool) "offset points at the damaged block" true
          (offset >= second);
        Alcotest.(check bool) "reason non-empty" true (String.length reason > 0)
      | _ -> Alcotest.fail "expected Trace_error on a flipped bit");
      let salvaged, damage = Trace.Tracefile.read_salvage path in
      Alcotest.(check int) "one block skipped" 1
        damage.Trace.Tracefile.skipped_blocks;
      Alcotest.(check int) "lost exactly one block"
        Trace.Tracefile.block_words
        (Trace.Tracefile.lost damage);
      Alcotest.(check int) "clean prefix is the first block"
        Trace.Tracefile.block_words damage.Trace.Tracefile.prefix_records;
      let ow = words buf and sw = words salvaged in
      Alcotest.(check bool) "first block intact" true
        (firstk Trace.Tracefile.block_words sw
        = firstk Trace.Tracefile.block_words ow))

(* ---------------- checkpoint journal ---------------- *)

let test_journal_roundtrip () =
  with_temp ".journal" (fun path ->
      let w = Resilience.Journal.create path in
      let payloads = List.init 20 (Printf.sprintf "cell-%d payload") in
      List.iter (Resilience.Journal.append w) payloads;
      Resilience.Journal.close w;
      let r = Resilience.Journal.replay path in
      Alcotest.(check (list string)) "all frames back" payloads
        r.Resilience.Journal.entries;
      Alcotest.(check int) "skipped" 0 r.Resilience.Journal.skipped_frames;
      Alcotest.(check bool) "no torn tail" false r.Resilience.Journal.torn_tail)

let test_journal_torn_tail_and_corrupt_frame () =
  with_temp ".journal" (fun path ->
      let w = Resilience.Journal.create path in
      List.iter (Resilience.Journal.append w) [ "one"; "two"; "three" ];
      Resilience.Journal.close w;
      let full = read_all path in
      (* flip a byte inside frame 2's payload: resync keeps 1 and 3 *)
      let second = find_marker full "RWJF" 1 in
      overwrite path (flip_byte full (second + 12 + 1));
      let r = Resilience.Journal.replay path in
      Alcotest.(check (list string)) "corrupt frame skipped" [ "one"; "three" ]
        r.Resilience.Journal.entries;
      Alcotest.(check bool) "skip counted" true
        (r.Resilience.Journal.skipped_frames >= 1);
      (* now tear the tail mid-frame: prefix survives, tail reported *)
      overwrite path (String.sub full 0 (String.length full - 3));
      let r2 = Resilience.Journal.replay path in
      Alcotest.(check (list string)) "prefix survives the torn tail"
        [ "one"; "two" ] r2.Resilience.Journal.entries;
      Alcotest.(check bool) "torn tail reported" true
        r2.Resilience.Journal.torn_tail;
      (* a non-journal file raises the typed error *)
      overwrite path "not a journal at all.............";
      match Resilience.Journal.replay path with
      | exception Resilience.Journal.Journal_error _ -> ()
      | _ -> Alcotest.fail "expected Journal_error on bad magic")

let test_journal_salvage_edges () =
  (* degenerate files fail with the typed error, never an exception
     from the frame scanner *)
  with_temp ".journal" (fun path ->
      overwrite path "";
      (match Resilience.Journal.replay path with
      | exception Resilience.Journal.Journal_error msg ->
        Alcotest.(check bool) "zero-length: typed error" true
          (contains ~affix:"not a RAP-WAM journal" msg)
      | _ -> Alcotest.fail "zero-length file accepted as a journal");
      (* a tear inside the 16-byte header: magic + half the version *)
      let w = Resilience.Journal.create path in
      Resilience.Journal.append w "payload";
      Resilience.Journal.close w;
      let full = read_all path in
      overwrite path (String.sub full 0 12);
      (match Resilience.Journal.replay path with
      | exception Resilience.Journal.Journal_error msg ->
        Alcotest.(check bool) "mid-header tear: typed error" true
          (contains ~affix:"not a RAP-WAM journal" msg)
      | _ -> Alcotest.fail "mid-header tear accepted as a journal");
      (* a tear just past the header is an empty, clean journal *)
      overwrite path (String.sub full 0 16);
      let r = Resilience.Journal.replay path in
      Alcotest.(check (list string)) "header-only: no entries" []
        r.Resilience.Journal.entries;
      Alcotest.(check bool) "header-only: not torn" false
        r.Resilience.Journal.torn_tail)

(* ---------------- the frame codec ---------------- *)

module Frame = Resilience.Frame

(* Random payload lists over either layout: a journal frame holds any
   bytes, a trace frame whole 8-byte words. *)
let arb_frames =
  QCheck.(
    pair bool (list_of_size Gen.(0 -- 8) (string_of_size Gen.(0 -- 40))))

let layout_payloads (words, payloads) =
  if words then
    ( Frame.trace,
      List.map
        (fun p -> p ^ String.make ((8 - (String.length p mod 8)) mod 8) 'w')
        payloads )
  else (Frame.journal, payloads)

let scan_all layout s =
  Frame.scan layout ~pos:0 s ~decode:(fun s off len ->
      Some (String.sub s off len))

let prop_frame_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"frame codec: scanning written frames returns every payload"
    arb_frames (fun g ->
      let layout, payloads = layout_payloads g in
      let r =
        scan_all layout
          (String.concat "" (List.map (Frame.encode layout) payloads))
      in
      r.Frame.frames = payloads && r.Frame.skipped = 0 && (not r.Frame.torn)
      && r.Frame.first_error = None
      && r.Frame.clean_prefix = List.length payloads)

let prop_frame_flip_loses_one =
  QCheck.Test.make ~count:300
    ~name:"frame codec: a flipped byte in frame k loses frame k only"
    QCheck.(
      pair arb_frames
        (triple small_nat (int_bound 1_000_000) (int_range 1 255)))
    (fun (g, (k_seed, i_seed, mask)) ->
      let layout, payloads = layout_payloads g in
      QCheck.assume (payloads <> []);
      let frames = List.map (Frame.encode layout) payloads in
      let k = k_seed mod List.length frames in
      let start =
        List.fold_left ( + ) 0
          (List.filteri (fun j _ -> j < k) (List.map String.length frames))
      in
      let i = start + (i_seed mod String.length (List.nth frames k)) in
      let s = String.concat "" frames in
      let damaged =
        String.mapi
          (fun j c -> if j = i then Char.chr (Char.code c lxor mask) else c)
          s
      in
      (scan_all layout damaged).Frame.frames
      = List.filteri (fun j _ -> j <> k) payloads)

let prop_frame_cut =
  QCheck.Test.make ~count:300
    ~name:"frame codec: a cut keeps the frames that end before it"
    QCheck.(pair arb_frames (int_bound 1_000_000))
    (fun (g, c_seed) ->
      let layout, payloads = layout_payloads g in
      let frames = List.map (Frame.encode layout) payloads in
      let s = String.concat "" frames in
      let cut = c_seed mod (String.length s + 1) in
      let ends =
        List.rev
          (snd
             (List.fold_left
                (fun (pos, acc) f ->
                  let e = pos + String.length f in
                  (e, e :: acc))
                (0, []) frames))
      in
      let r = scan_all layout (String.sub s 0 cut) in
      r.Frame.frames = List.filteri (fun j _ -> List.nth ends j <= cut) payloads
      && r.Frame.torn = not (cut = 0 || List.mem cut ends))

(* The on-disk layout of the three durable formats, pinned by digest:
   a change of format must show up here, not in a reader's salvage. *)
let test_format_pins () =
  let md5 path = Digest.to_hex (Digest.string (read_all path)) in
  with_temp ".trace" (fun path ->
      (* 2,500 words: two full blocks and a partial one *)
      Trace.Tracefile.write path (make_trace 2500);
      Alcotest.(check string) "trace file" "9e458fa1bdba0056e6fe787fdb42b41d"
        (md5 path));
  with_temp ".journal" (fun path ->
      let w = Resilience.Journal.create path in
      List.iter (Resilience.Journal.append w) [ "one"; "two"; "three" ];
      Resilience.Journal.close w;
      Alcotest.(check string) "journal" "9f04ea9dd5fce12f415db1c00050748f"
        (md5 path));
  with_temp ".snap" (fun path ->
      let key s = Result.get_ok (Memo.Canon.key_of_query s) in
      let table = Memo.Table.create ~capacity_words:0 () in
      ignore
        (Memo.Table.insert table (key "qsort([3,1,2], S)")
           [ [ ("S", Prolog.Parser.term_of_string "[1,2,3]") ] ]);
      ignore
        (Memo.Table.insert table (key "deriv(x*x, x, D)")
           [ [ ("D", Prolog.Parser.term_of_string "1*x+x*1") ] ]);
      ignore (Memo.Snapshot.save table path);
      Alcotest.(check string) "memo snapshot"
        "84dddc2ca06d95fdc93dd2547a3e906c" (md5 path))

let test_cell_codec_roundtrip () =
  let buf = make_trace 2000 in
  let m =
    Cachesim.Multi.simulate ~line_words:4 ~kind:Cachesim.Protocol.Hybrid
      ~cache_words:256 ~n_pes:4 buf
  in
  let payload = Engine.Results.encode_cell "deriv/4pe/hybrid/l4/c256" m in
  match Engine.Results.decode_cell payload with
  | None -> Alcotest.fail "decode_cell rejected its own encoding"
  | Some (key, m') ->
    Alcotest.(check string) "key" "deriv/4pe/hybrid/l4/c256" key;
    Alcotest.(check bool) "metrics identical" true (m = m');
    Alcotest.(check bool) "garbage rejected" true
      (Engine.Results.decode_cell "no newline here" = None)

(* ---------------- watchdog ---------------- *)

let test_watchdog_recovers_stalled_job () =
  let attempts = Atomic.make 0 in
  let job =
    Engine.Job.make ~key:"stalls-once" (fun () ->
        if Atomic.fetch_and_add attempts 1 = 0 then Unix.sleepf 0.5;
        7)
  in
  let wd =
    Engine.Job.attempts ~timeout_s:0.05 ~backoff_s:0.01 ~poll_s:0.002 3
  in
  let c = Engine.Job.run ~attempts:wd job in
  Alcotest.(check bool) "recovered" true (Engine.Job.ok c);
  Alcotest.(check int) "second attempt won" 2 c.Engine.Job.attempts;
  match c.Engine.Job.outcome with
  | Ok v -> Alcotest.(check int) "value" 7 v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let test_watchdog_gives_up () =
  let job = Engine.Job.make ~key:"wedged" (fun () -> Unix.sleepf 0.3; 0) in
  let wd =
    Engine.Job.attempts ~timeout_s:0.03 ~backoff_s:0.01 ~poll_s:0.002 2
  in
  let c = Engine.Job.run ~attempts:wd job in
  Alcotest.(check bool) "failed" false (Engine.Job.ok c);
  Alcotest.(check int) "both attempts used" 2 c.Engine.Job.attempts;
  match c.Engine.Job.outcome with
  | Error e ->
    Alcotest.(check bool) "error names the watchdog" true
      (contains ~affix:"watchdog" e)
  | Ok _ -> Alcotest.fail "expected a watchdog timeout"

let test_dag_completes_with_stalled_cell () =
  let stalled = Atomic.make 0 in
  let dag =
    {
      Engine.Dag.produce = [ ("t", fun () -> 1) ];
      consume =
        [
          ("a", "t", fun v -> v + 1);
          ( "b", "t",
            fun v ->
              if Atomic.fetch_and_add stalled 1 = 0 then Unix.sleepf 0.5;
              v + 2 );
          ("c", "t", fun v -> v + 3);
        ];
    }
  in
  let wd =
    Engine.Job.attempts ~timeout_s:0.05 ~backoff_s:0.01 ~poll_s:0.002 3
  in
  let cells, _ = Engine.Dag.run ~jobs:2 ~attempts:wd dag in
  Array.iter
    (fun (c : _ Engine.Job.completed) ->
      if not (Engine.Job.ok c) then
        Alcotest.failf "cell %s failed despite the watchdog" c.Engine.Job.key)
    cells;
  Alcotest.(check int) "stalled cell retried" 2 (Atomic.get stalled)

(* ---------------- sweep crash / resume ---------------- *)

let small name =
  List.find
    (fun b -> b.Benchlib.Programs.name = name)
    (Benchlib.Inputs.small_benchmarks ())

let tiny_grid () =
  {
    Engine.Sweep.benchmarks = [ small "deriv" ];
    pe_counts = [ 2 ];
    protocols = [ Cachesim.Protocol.Write_through; Cachesim.Protocol.Hybrid ];
    cache_sizes = [ 256 ];
    line_words = 4;
    alloc = Engine.Sweep.Default;
  }

let cells_json (o : Engine.Sweep.outcome) =
  Obs.Json.to_string (Engine.Results.to_json o.Engine.Sweep.cells)

(* A crash at the second (trace, protocol) job: the first job's cells,
   one per size, are in the journal, and the resumed sweep renders
   the uncrashed grid byte for byte. *)
let test_sweep_crash_then_resume_identical () =
  let trace =
    (("deriv", 2), (Benchlib.Runner.run_rapwam ~n_pes:2 (small "deriv")).Benchlib.Runner.trace)
  in
  List.iter
    (fun sizes ->
      let grid = { (tiny_grid ()) with Engine.Sweep.cache_sizes = sizes } in
      let baseline = Engine.Sweep.run ~jobs:1 ~traces:[ trace ] grid in
      with_temp ".journal" (fun journal ->
          let faults =
            F.make [ ("cell-start", F.Crash, 1) ]
          in
          (match
             Engine.Sweep.run ~jobs:1 ~traces:[ trace ] ~faults ~journal grid
           with
          | _ -> Alcotest.fail "expected the injected crash to abort the sweep"
          | exception F.Injected { site = "cell-start"; kind = F.Crash; _ } -> ());
          let resumed =
            Engine.Sweep.run ~jobs:1 ~traces:[ trace ] ~journal ~resume:true grid
          in
          Alcotest.(check int) "first job's cells restored from the journal"
            (List.length sizes) resumed.Engine.Sweep.resumed_cells;
          Alcotest.(check string) "resumed output bit-identical"
            (cells_json baseline) (cells_json resumed);
          Alcotest.(check string) "CSV bit-identical too"
            (Engine.Results.to_csv ~areas:baseline.Engine.Sweep.areas
               baseline.Engine.Sweep.cells)
            (Engine.Results.to_csv ~areas:resumed.Engine.Sweep.areas
               resumed.Engine.Sweep.cells)))
    [ [ 256 ]; [ 64; 256; 1024 ] ]

(* A job whose cells are partly in the journal simulates only its
   missing sizes: two of the write-through job's three cells are
   journaled with a marked counter, the resumed sweep keeps the marks,
   and the journal ends with one frame per cell (a job that simulated
   all three sizes again would append two more). *)
let test_sweep_partial_job_resumes_missing_sizes () =
  let grid = { (tiny_grid ()) with Engine.Sweep.cache_sizes = [ 64; 256; 1024 ] } in
  let trace =
    (("deriv", 2), (Benchlib.Runner.run_rapwam ~n_pes:2 (small "deriv")).Benchlib.Runner.trace)
  in
  let baseline = Engine.Sweep.run ~jobs:1 ~traces:[ trace ] grid in
  let marked (c : Engine.Results.config) =
    c.Engine.Results.protocol = Cachesim.Protocol.Write_through
    && c.Engine.Results.cache_words <> 256
  in
  let mark (m : Cachesim.Metrics.t) =
    { m with Cachesim.Metrics.bus_words = m.Cachesim.Metrics.bus_words + 1 }
  in
  with_temp ".journal" (fun journal ->
      let w = Resilience.Journal.create journal in
      List.iter
        (fun (c : Engine.Results.cell) ->
          match c.Engine.Results.metrics with
          | Ok m when marked c.Engine.Results.config ->
            Resilience.Journal.append w
              (Engine.Results.encode_cell
                 (Engine.Results.config_key c.Engine.Results.config)
                 (mark m))
          | Ok _ -> ()
          | Error e -> Alcotest.failf "baseline cell failed: %s" e)
        baseline.Engine.Sweep.cells;
      Resilience.Journal.close w;
      let resumed =
        Engine.Sweep.run ~jobs:1 ~traces:[ trace ] ~journal ~resume:true grid
      in
      Alcotest.(check int) "two cells restored" 2 resumed.Engine.Sweep.resumed_cells;
      List.iter2
        (fun (b : Engine.Results.cell) (r : Engine.Results.cell) ->
          let cfg = b.Engine.Results.config in
          match (b.Engine.Results.metrics, r.Engine.Results.metrics) with
          | Ok mb, Ok mr ->
            let expected = if marked cfg then mark mb else mb in
            if mr <> expected then
              Alcotest.failf "%s: not the %s counters"
                (Engine.Results.config_key cfg)
                (if marked cfg then "journaled" else "simulated")
          | _ -> Alcotest.fail "a cell failed")
        baseline.Engine.Sweep.cells resumed.Engine.Sweep.cells;
      Alcotest.(check int) "one journal frame per cell" 6
        (List.length (Resilience.Journal.replay journal).Resilience.Journal.entries))

(* ---------------- the site x kind acceptance matrix ---------------- *)

let test_site_kind_matrix () =
  let grid = tiny_grid () in
  let trace =
    (("deriv", 2), (Benchlib.Runner.run_rapwam ~n_pes:2 (small "deriv")).Benchlib.Runner.trace)
  in
  let baseline =
    cells_json (Engine.Sweep.run ~jobs:1 ~traces:[ trace ] grid)
  in
  let trace_buf = make_trace 300 in
  List.iter
    (fun site ->
      List.iter
        (fun kind ->
          let label =
            Printf.sprintf "%s:%s" site (F.kind_name kind)
          in
          let plan = F.make ~stall_s:0.05 [ (site, kind, 0) ] in
          match site with
          | "trace-write" | "block-flush" ->
            (* I/O sites: exercised by writing a trace file *)
            with_temp ".trace" (fun path ->
                Sys.remove path;
                match Trace.Tracefile.write ~faults:plan path trace_buf with
                | exception F.Injected { site = fired_site; _ } ->
                  (* typed failure: nothing committed *)
                  Alcotest.(check string) (label ^ " site") site fired_site;
                  Alcotest.(check bool)
                    (label ^ " destination untouched")
                    false (Sys.file_exists path)
                | () -> (
                  (* committed: either clean or salvageable damage *)
                  let salvaged, damage = Trace.Tracefile.read_salvage path in
                  let sw = words salvaged and ow = words trace_buf in
                  Alcotest.(check bool)
                    (label ^ " salvage is a prefix/subset") true
                    (firstk damage.Trace.Tracefile.prefix_records sw
                    = firstk damage.Trace.Tracefile.prefix_records ow);
                  match kind with
                  | F.Stall ->
                    Alcotest.(check bool) (label ^ " clean after stall") true
                      (Trace.Tracefile.clean damage && sw = ow)
                  | F.Truncate | F.Bit_flip ->
                    Alcotest.(check bool)
                      (label ^ " damage detected and reported") true
                      (not (Trace.Tracefile.clean damage))
                  | F.Eio | F.Crash ->
                    Alcotest.failf "%s: fault did not fire" label))
          | "snapshot-write" ->
            (* memo snapshot site: exercised by saving a two-entry table *)
            let mkey s =
              match Memo.Canon.key_of_query s with
              | Ok k -> k
              | Error e -> Alcotest.failf "%s: bad key %S: %s" label s e
            in
            let table = Memo.Table.create ~capacity_words:0 () in
            ignore
              (Memo.Table.insert table
                 (mkey "qsort([3,1,2], S)")
                 [ [ ("S", Prolog.Parser.term_of_string "[1,2,3]") ] ]);
            ignore
              (Memo.Table.insert table
                 (mkey "deriv(x*x, x, D)")
                 [ [ ("D", Prolog.Parser.term_of_string "1*x+x*1") ] ]);
            with_temp ".snap" (fun path ->
                Sys.remove path;
                match Memo.Snapshot.save ~plan table path with
                | exception F.Injected { site = fired; _ } ->
                  (* typed failure: the atomic write never committed *)
                  Alcotest.(check string) (label ^ " site") site fired;
                  Alcotest.(check bool)
                    (label ^ " destination untouched")
                    false (Sys.file_exists path)
                | saved -> (
                  let fresh = Memo.Table.create ~capacity_words:0 () in
                  let st = Memo.Snapshot.restore fresh path in
                  match kind with
                  | F.Stall ->
                    Alcotest.(check bool) (label ^ " clean after stall") true
                      (st.Memo.Snapshot.entries = saved
                      && st.Memo.Snapshot.skipped = 0
                      && not st.Memo.Snapshot.torn)
                  | F.Truncate | F.Bit_flip ->
                    (* salvage loses only damaged entries, and says so *)
                    Alcotest.(check bool)
                      (label ^ " damage detected and contained") true
                      (st.Memo.Snapshot.entries < saved
                      && (st.Memo.Snapshot.skipped > 0
                         || st.Memo.Snapshot.torn))
                  | F.Eio | F.Crash ->
                    Alcotest.failf "%s: fault did not fire" label))
          | "breaker-probe" ->
            (* in-memory site: the supervisor's half-open probe either
               stalls (and proceeds) or raises the typed exception *)
            (match F.hit ~plan site with
            | () ->
              Alcotest.(check bool) (label ^ " stall proceeds") true
                (kind = F.Stall)
            | exception F.Injected { site = fired; kind = k; _ } ->
              Alcotest.(check string) (label ^ " site") site fired;
              Alcotest.(check string) (label ^ " kind") (F.kind_name kind)
                (F.kind_name k))
          | _ ->
            (* engine sites: exercised through a journaled sweep *)
            with_temp ".journal" (fun journal ->
                match
                  Engine.Sweep.run ~jobs:1 ~traces:[ trace ] ~faults:plan
                    ~journal grid
                with
                | o ->
                  (* every non-crash kind must recover to the exact
                     fault-free outcome (retry or warn-once path) *)
                  Alcotest.(check bool) (label ^ " not lethal") true
                    (kind <> F.Crash);
                  Alcotest.(check string)
                    (label ^ " recovered bit-identically")
                    baseline (cells_json o)
                | exception F.Injected { site = s; kind = F.Crash; _ } ->
                  Alcotest.(check string) (label ^ " crash site") site s;
                  (* the journal makes the crash survivable *)
                  let resumed =
                    Engine.Sweep.run ~jobs:1 ~traces:[ trace ] ~journal
                      ~resume:true grid
                  in
                  Alcotest.(check string)
                    (label ^ " resume completes the grid")
                    baseline (cells_json resumed)))
        F.kinds)
    F.sites

let suite =
  [
    Alcotest.test_case "crc32 known answer" `Quick test_crc32_known_answer;
    Alcotest.test_case "crc32 incremental chaining" `Quick test_crc32_chaining;
    Alcotest.test_case "atomic write commits" `Quick test_atomic_write_commits;
    Alcotest.test_case "atomic write aborts cleanly" `Quick
      test_atomic_write_aborts_cleanly;
    Alcotest.test_case "fault spec parse/seed determinism" `Quick
      test_fault_spec_roundtrip;
    Alcotest.test_case "fault fires exactly once" `Quick test_fault_fires_once;
    Alcotest.test_case "fault spec rejects duplicate occurrences" `Quick
      test_fault_spec_rejects_duplicates;
    qt prop_truncation_salvage;
    Alcotest.test_case "bit-flip salvage resyncs" `Quick
      test_bitflip_salvage_resyncs;
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal survives tears and corruption" `Quick
      test_journal_torn_tail_and_corrupt_frame;
    Alcotest.test_case "journal salvage edges (empty, mid-header tear)" `Quick
      test_journal_salvage_edges;
    qt prop_frame_roundtrip;
    qt prop_frame_flip_loses_one;
    qt prop_frame_cut;
    Alcotest.test_case "durable formats pinned by digest" `Quick
      test_format_pins;
    Alcotest.test_case "cell codec roundtrip" `Quick test_cell_codec_roundtrip;
    Alcotest.test_case "watchdog recovers a stalled job" `Quick
      test_watchdog_recovers_stalled_job;
    Alcotest.test_case "watchdog gives up after max attempts" `Quick
      test_watchdog_gives_up;
    Alcotest.test_case "dag completes with a stalled cell" `Quick
      test_dag_completes_with_stalled_cell;
    Alcotest.test_case "sweep crash then resume bit-identical" `Quick
      test_sweep_crash_then_resume_identical;
    Alcotest.test_case "site x kind fault matrix" `Quick test_site_kind_matrix;
    Alcotest.test_case "a partly journaled job simulates only its missing sizes"
      `Quick test_sweep_partial_job_resumes_missing_sizes;
  ]
