(* Tests for the happens-before trace checker: sync-event plumbing
   through the trace substrate, the checker's rules on hand-built
   traces, clean verdicts on real benchmark traces, the seeded-defect
   fixtures, and the sweep engine's --check integration. *)

module R = Trace.Ref_record
module B = Trace.Sink.Buffer_sink

(* ---- helpers ---- *)

let acc pe addr area op = { R.pe; addr; area; op }

let make_buf entries =
  let buf = B.create () in
  let sink = B.sink buf in
  List.iter
    (function
      | `A r -> Trace.Sink.emit sink r
      | `S s -> Trace.Sink.emit_sync sink s)
    entries;
  buf

let check_entries entries = Tracecheck.check_buffer (make_buf entries)

let rules summary =
  List.sort_uniq compare
    (List.map (fun (v : Tracecheck.violation) -> v.rule) summary.Tracecheck.violations)

let small name =
  List.find
    (fun (b : Benchlib.Programs.benchmark) -> b.Benchlib.Programs.name = name)
    (Benchlib.Inputs.small_benchmarks ())

(* ---- sync-event packing ---- *)

let test_sync_pack_roundtrip () =
  List.iter
    (fun (spe, saddr, kind) ->
      let s = { R.spe; saddr; kind } in
      let w = R.pack_sync s in
      Alcotest.(check bool) "is_sync_word" true (R.is_sync_word w);
      Alcotest.(check bool) "roundtrip" true (R.unpack_sync w = s))
    [
      (0, 0, R.Acquire);
      (3, Wam.Layout.local_base 3 + 17, R.Release);
      (255, Wam.Layout.goal_base 255, R.Publish);
      (7, Wam.Layout.goal_base 2 + 3, R.Steal);
      (1, Wam.Layout.local_base 0 + 1, R.Join);
    ];
  (* access words never classify as sync words *)
  List.iter
    (fun area ->
      let w =
        R.pack (acc 5 12345 area R.Write)
      in
      Alcotest.(check bool) (Trace.Area.name area) false (R.is_sync_word w))
    Trace.Area.all

let test_buffer_sink_syncs () =
  let buf =
    make_buf
      [
        `A (acc 0 (Wam.Layout.heap_base 0) Trace.Area.Heap R.Write);
        `S { R.spe = 0; saddr = 1; kind = R.Release };
        `A (acc 1 (Wam.Layout.heap_base 0) Trace.Area.Heap R.Read);
        `S { R.spe = 1; saddr = 1; kind = R.Acquire };
      ]
  in
  Alcotest.(check int) "length counts all" 4 (B.length buf);
  Alcotest.(check int) "n_syncs" 2 (B.n_syncs buf);
  let accesses = ref 0 in
  B.iter (fun _ -> incr accesses) buf;
  Alcotest.(check int) "iter skips syncs" 2 !accesses;
  let entries = ref [] in
  B.iter_entries (fun e -> entries := e :: !entries) buf;
  Alcotest.(check int) "iter_entries sees all" 4 (List.length !entries);
  let n_sync_entries =
    List.length
      (List.filter (function R.Sync _ -> true | _ -> false) !entries)
  in
  Alcotest.(check int) "entries decode kinds" 2 n_sync_entries

let test_areastats_ignores_syncs () =
  let st = Trace.Areastats.create () in
  let sink = Trace.Areastats.sink st in
  Trace.Sink.emit sink (acc 0 (Wam.Layout.heap_base 0) Trace.Area.Heap R.Write);
  Trace.Sink.emit_sync sink { R.spe = 0; saddr = 1; kind = R.Release };
  Trace.Sink.emit sink (acc 0 (Wam.Layout.heap_base 0) Trace.Area.Heap R.Read);
  Alcotest.(check int) "total excludes syncs" 2 (Trace.Areastats.total st);
  Alcotest.(check int) "syncs counted apart" 1 (Trace.Areastats.syncs st)

let test_tracefile_preserves_syncs () =
  let buf =
    make_buf
      [
        `A (acc 0 (Wam.Layout.heap_base 0) Trace.Area.Heap R.Write);
        `S { R.spe = 0; saddr = Wam.Layout.goal_base 0; kind = R.Publish };
        `A (acc 1 (Wam.Layout.heap_base 0) Trace.Area.Heap R.Read);
      ]
  in
  let path = Filename.temp_file "rapwam" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.Tracefile.write path buf;
      let buf2 = Trace.Tracefile.read path in
      Alcotest.(check int) "length" (B.length buf) (B.length buf2);
      Alcotest.(check int) "syncs" (B.n_syncs buf) (B.n_syncs buf2))

(* ---- checker rules on hand-built traces ---- *)

let h0 = Wam.Layout.heap_base 0
let h1 = Wam.Layout.heap_base 1
let lock = Wam.Layout.local_base 0 + 1

let test_ordered_cross_pe_clean () =
  let s =
    check_entries
      [
        `A (acc 0 h0 Trace.Area.Heap R.Write);
        `S { R.spe = 0; saddr = lock; kind = R.Release };
        `S { R.spe = 1; saddr = lock; kind = R.Acquire };
        `A (acc 1 h0 Trace.Area.Heap R.Read);
        `A (acc 1 h0 Trace.Area.Heap R.Write);
      ]
  in
  Alcotest.(check bool) "clean" true (Tracecheck.ok s);
  Alcotest.(check int) "accesses" 3 s.Tracecheck.accesses;
  Alcotest.(check int) "syncs" 2 s.Tracecheck.syncs

let test_unordered_write_write_races () =
  let s =
    check_entries
      [
        `A (acc 0 h0 Trace.Area.Heap R.Write);
        `S { R.spe = 0; saddr = lock; kind = R.Release };
        `S { R.spe = 1; saddr = lock; kind = R.Acquire };
        (* ordered creation, but these two binds are unordered *)
        `A (acc 1 h0 Trace.Area.Heap R.Write);
        `A (acc 0 h0 Trace.Area.Heap R.Write);
      ]
  in
  Alcotest.(check (list string)) "write-write race" [ "race" ] (rules s)

let test_local_tag_unordered_races () =
  let cp = Wam.Layout.control_base 0 + 4 in
  let s =
    check_entries
      [
        `A (acc 0 cp Trace.Area.Choice_point R.Write);
        `A (acc 1 cp Trace.Area.Choice_point R.Read);
      ]
  in
  Alcotest.(check (list string)) "local-tag race" [ "race" ] (rules s)

let test_benign_binding_race_clean () =
  (* PE0 creates an unbound var, publishes it, derefs it again; PE1
     binds it later.  The bind races with the deref, but the creation
     is ordered before both: the coherent-heap single-assignment
     pattern, which must stay clean. *)
  let s =
    check_entries
      [
        `A (acc 0 h0 Trace.Area.Heap R.Write);
        `S { R.spe = 0; saddr = lock; kind = R.Release };
        `S { R.spe = 1; saddr = lock; kind = R.Acquire };
        `A (acc 0 h0 Trace.Area.Heap R.Read);
        (* parent deref *)
        `A (acc 1 h0 Trace.Area.Heap R.Write);
        (* child bind, unordered with the deref *)
        `A (acc 0 h0 Trace.Area.Heap R.Read)
        (* parent deref after the bind, still unordered *);
      ]
  in
  Alcotest.(check bool) "benign race tolerated" true (Tracecheck.ok s)

let test_missing_join_read_races () =
  (* PE1 creates a word with no synchronization; PE0 reads it: the
     creating write was never ordered with the reader (the signature a
     dropped join leaves behind). *)
  let s =
    check_entries
      [
        `A (acc 1 h1 Trace.Area.Heap R.Write);
        `A (acc 0 h1 Trace.Area.Heap R.Read);
      ]
  in
  Alcotest.(check (list string)) "unsynchronized creation" [ "race" ]
    (rules s)

let test_tag_locality_on_ordered_conflict () =
  let pl = Wam.Layout.local_base 0 + 20 in
  let s =
    check_entries
      [
        `A (acc 0 pl Trace.Area.Parcall_local R.Write);
        `S { R.spe = 0; saddr = lock; kind = R.Release };
        `S { R.spe = 1; saddr = lock; kind = R.Acquire };
        (* ordered, but the remote side uses a Local tag *)
        `A (acc 1 pl Trace.Area.Parcall_local R.Read);
      ]
  in
  Alcotest.(check (list string)) "tag-locality" [ "tag-locality" ] (rules s);
  match s.Tracecheck.violations with
  | v :: _ ->
    Alcotest.(check int) "flags the remote PE" 1 v.Tracecheck.pe;
    Alcotest.(check int) "addr" pl v.Tracecheck.addr
  | [] -> Alcotest.fail "expected a violation"

let test_read_before_write () =
  let s = check_entries [ `A (acc 0 h0 Trace.Area.Heap R.Read) ] in
  Alcotest.(check (list string)) "rbw" [ "read-before-write" ] (rules s);
  (* boot-initialized goal/message control words are exempt *)
  let s2 =
    check_entries
      [
        `A (acc 0 (Wam.Layout.goal_base 0) Trace.Area.Goal_frame R.Read);
        `A (acc 0 (Wam.Layout.msg_base 0 + 2) Trace.Area.Message R.Read);
      ]
  in
  Alcotest.(check bool) "boot words exempt" true (Tracecheck.ok s2)

let test_area_bounds () =
  let s =
    check_entries
      [ `A (acc 0 (Wam.Layout.trail_base 0) Trace.Area.Heap R.Write) ]
  in
  Alcotest.(check (list string)) "area-bounds" [ "area-bounds" ] (rules s)

let test_stale_trail () =
  let tr = Wam.Layout.trail_base 0 in
  let s =
    check_entries
      [
        `A (acc 0 tr Trace.Area.Trail R.Write);
        (* trail replay: read the entry, reset a never-written word *)
        `A (acc 0 tr Trace.Area.Trail R.Read);
        `A (acc 0 h0 Trace.Area.Heap R.Write);
      ]
  in
  Alcotest.(check (list string)) "stale-trail" [ "stale-trail" ] (rules s);
  (* the same pattern resetting a written word is clean *)
  let s2 =
    check_entries
      [
        `A (acc 0 h0 Trace.Area.Heap R.Write);
        `A (acc 0 tr Trace.Area.Trail R.Write);
        `A (acc 0 tr Trace.Area.Trail R.Read);
        `A (acc 0 h0 Trace.Area.Heap R.Write);
      ]
  in
  Alcotest.(check bool) "legitimate untrail clean" true (Tracecheck.ok s2)

(* ---- real traces ---- *)

let test_benchmarks_clean () =
  List.iter
    (fun name ->
      let b = small name in
      let wam = Benchlib.Runner.run_wam b in
      let s = Tracecheck.check_buffer wam.Benchlib.Runner.trace in
      Alcotest.(check bool) (name ^ "/wam clean") true (Tracecheck.ok s);
      List.iter
        (fun n_pes ->
          let r = Benchlib.Runner.run_rapwam ~n_pes b in
          let s = Tracecheck.check_buffer r.Benchlib.Runner.trace in
          if not (Tracecheck.ok s) then
            Alcotest.failf "%s@%dpe: %s" name n_pes
              (Format.asprintf "%a" Tracecheck.pp_summary s);
          Alcotest.(check bool)
            (Printf.sprintf "%s@%dpe PEs seen" name n_pes)
            true
            (s.Tracecheck.n_pes <= n_pes))
        [ 1; 2; 4 ])
    [ "deriv"; "qsort" ]

let test_sync_kinds_emitted () =
  let r = Benchlib.Runner.run_rapwam ~n_pes:4 (small "qsort") in
  let kinds = Hashtbl.create 8 in
  B.iter_entries
    (function
      | R.Sync s -> Hashtbl.replace kinds s.R.kind ()
      | R.Access _ -> ())
    r.Benchlib.Runner.trace;
  List.iter
    (fun (name, k) -> Alcotest.(check bool) name true (Hashtbl.mem kinds k))
    [
      ("acquire", R.Acquire); ("release", R.Release); ("publish", R.Publish);
      ("join", R.Join);
    ];
  if r.Benchlib.Runner.goals_stolen > 0 then
    Alcotest.(check bool) "steal" true (Hashtbl.mem kinds R.Steal)

let test_defects_detected () =
  let r = Benchlib.Runner.run_rapwam ~n_pes:4 (small "qsort") in
  let clean = Tracecheck.check_buffer r.Benchlib.Runner.trace in
  Alcotest.(check bool) "baseline clean" true (Tracecheck.ok clean);
  List.iter
    (fun (d : Tracecheck.Defects.defect) ->
      let damaged = Tracecheck.Defects.apply d.name r.Benchlib.Runner.trace in
      let s = Tracecheck.check_buffer damaged in
      if Tracecheck.ok s then
        Alcotest.failf "defect %s escaped detection" d.name;
      let hit =
        List.exists
          (fun (v : Tracecheck.violation) -> v.rule = d.rule)
          s.Tracecheck.violations
      in
      if not hit then
        Alcotest.failf "defect %s fired %s, expected rule %s" d.name
          (String.concat "," (rules s))
          d.rule;
      (* diagnostics carry PE, address and area *)
      List.iter
        (fun (v : Tracecheck.violation) ->
          Alcotest.(check bool) (d.name ^ " pe") true (v.Tracecheck.pe >= 0);
          Alcotest.(check bool) (d.name ^ " addr") true (v.Tracecheck.addr >= 0))
        s.Tracecheck.violations)
    Tracecheck.Defects.all

let test_defect_list_complete () =
  Alcotest.(check (list string))
    "five seeded defects"
    [
      "dropped-join"; "mistagged-parcall-slot"; "unlocked-counter";
      "read-before-write"; "stale-trail";
    ]
    Tracecheck.Defects.names;
  Alcotest.(check bool) "find" true
    (Tracecheck.Defects.find "dropped-join" <> None);
  Alcotest.(check bool) "find unknown" true
    (Tracecheck.Defects.find "no-such-defect" = None)

(* ---- salvaged traces ---- *)

let test_salvaged_prefix_checks_clean () =
  (* a trace truncated in transit: the salvaged prefix must check
     clean — losing the tail must not invent read-before-write or
     race violations in what remains *)
  let r = Benchlib.Runner.run_rapwam ~n_pes:2 (small "deriv") in
  let buf = r.Benchlib.Runner.trace in
  let path = Filename.temp_file "rapwam" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.Tracefile.write path buf;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let cut = String.length full * 60 / 100 in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub full 0 cut));
      let salvaged, damage = Trace.Tracefile.read_salvage path in
      Alcotest.(check bool) "truncation reported" true
        damage.Trace.Tracefile.truncated;
      Alcotest.(check bool) "something salvaged" true (B.length salvaged > 0);
      let s = Tracecheck.check_buffer salvaged in
      if not (Tracecheck.ok s) then
        Alcotest.failf "salvaged prefix not clean: %s"
          (Format.asprintf "%a" Tracecheck.pp_summary s);
      (* now damage the middle instead of the tail: resync skips a
         block, so only the pre-damage prefix is checkable — and that
         prefix must still be clean *)
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc full);
      let mid = String.length full / 2 in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.mapi
               (fun i c ->
                 if i = mid then Char.chr (Char.code c lxor 0x08) else c)
               full));
      let salvaged2, damage2 = Trace.Tracefile.read_salvage path in
      if damage2.Trace.Tracefile.skipped_blocks > 0 then begin
        let prefix = B.create () in
        let taken = ref 0 in
        B.iter_packed
          (fun w ->
            if !taken < damage2.Trace.Tracefile.prefix_records then begin
              B.push prefix w;
              incr taken
            end)
          salvaged2;
        let s2 = Tracecheck.check_buffer prefix in
        if not (Tracecheck.ok s2) then
          Alcotest.failf "pre-damage prefix not clean: %s"
            (Format.asprintf "%a" Tracecheck.pp_summary s2)
      end)

(* ---- sweep engine integration ---- *)

let test_sweep_check_integration () =
  let b = small "qsort" in
  let grid =
    {
      Engine.Sweep.benchmarks = [ b ];
      pe_counts = [ 2 ];
      protocols = [ Cachesim.Protocol.Hybrid ];
      cache_sizes = [ 256 ];
      line_words = 4;
      alloc = Engine.Sweep.Default;
    }
  in
  let outcome = Engine.Sweep.run ~jobs:2 ~check:true grid in
  List.iter
    (fun (c : Engine.Results.cell) ->
      match c.Engine.Results.metrics with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "checked cell failed: %s" e)
    outcome.Engine.Sweep.cells;
  (* a damaged pre-supplied trace must fail its cells through the DAG *)
  let r = Benchlib.Runner.run_rapwam ~n_pes:2 b in
  let bad =
    Tracecheck.Defects.apply "read-before-write" r.Benchlib.Runner.trace
  in
  let outcome2 =
    Engine.Sweep.run ~jobs:2 ~check:true
      ~traces:[ ((b.Benchlib.Programs.name, 2), bad) ]
      grid
  in
  List.iter
    (fun (c : Engine.Results.cell) ->
      match c.Engine.Results.metrics with
      | Ok _ -> Alcotest.fail "expected tracecheck to fail the cell"
      | Error e ->
        Alcotest.(check bool) "error mentions tracecheck" true
          (String.length e > 0))
    outcome2.Engine.Sweep.cells

let suite =
  [
    Alcotest.test_case "sync pack roundtrip" `Quick test_sync_pack_roundtrip;
    Alcotest.test_case "buffer sink syncs" `Quick test_buffer_sink_syncs;
    Alcotest.test_case "areastats ignores syncs" `Quick
      test_areastats_ignores_syncs;
    Alcotest.test_case "tracefile preserves syncs" `Quick
      test_tracefile_preserves_syncs;
    Alcotest.test_case "ordered cross-PE clean" `Quick
      test_ordered_cross_pe_clean;
    Alcotest.test_case "unordered write-write races" `Quick
      test_unordered_write_write_races;
    Alcotest.test_case "local-tag unordered races" `Quick
      test_local_tag_unordered_races;
    Alcotest.test_case "benign binding race clean" `Quick
      test_benign_binding_race_clean;
    Alcotest.test_case "missing-join read races" `Quick
      test_missing_join_read_races;
    Alcotest.test_case "tag-locality on ordered conflict" `Quick
      test_tag_locality_on_ordered_conflict;
    Alcotest.test_case "read before write" `Quick test_read_before_write;
    Alcotest.test_case "area bounds" `Quick test_area_bounds;
    Alcotest.test_case "stale trail" `Quick test_stale_trail;
    Alcotest.test_case "benchmarks clean" `Quick test_benchmarks_clean;
    Alcotest.test_case "sync kinds emitted" `Quick test_sync_kinds_emitted;
    Alcotest.test_case "defects detected" `Quick test_defects_detected;
    Alcotest.test_case "defect list complete" `Quick test_defect_list_complete;
    Alcotest.test_case "salvaged prefix checks clean" `Quick
      test_salvaged_prefix_checks_clean;
    Alcotest.test_case "sweep check integration" `Quick
      test_sweep_check_integration;
  ]
