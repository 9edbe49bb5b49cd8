(* Tests for the trace substrate: record packing, sinks, area stats,
   and the address-space layout. *)

let test_pack_roundtrip () =
  List.iter
    (fun (pe, addr, area, op) ->
      let r = { Trace.Ref_record.pe; addr; area; op } in
      let r' = Trace.Ref_record.unpack (Trace.Ref_record.pack r) in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip pe=%d addr=%d" pe addr)
        true (r = r'))
    [
      (0, 0, Trace.Area.Heap, Trace.Ref_record.Read);
      (7, 123456, Trace.Area.Trail, Trace.Ref_record.Write);
      (255, 1 lsl 30, Trace.Area.Code, Trace.Ref_record.Read);
      (63, Wam.Layout.msg_base 63, Trace.Area.Message, Trace.Ref_record.Write);
    ]

let test_area_int_roundtrip () =
  List.iter
    (fun a ->
      Alcotest.(check bool) (Trace.Area.name a) true
        (Trace.Area.of_int (Trace.Area.to_int a) = a))
    Trace.Area.all

let test_table1_locality () =
  (* spot-check against the paper's Table 1 *)
  let check a expect =
    Alcotest.(check string) (Trace.Area.name a) expect
      (Trace.Area.locality_name (Trace.Area.locality a))
  in
  check Trace.Area.Env_control "Local";
  check Trace.Area.Env_pvar "Global";
  check Trace.Area.Choice_point "Local";
  check Trace.Area.Heap "Global";
  check Trace.Area.Trail "Local";
  check Trace.Area.Pdl "Local";
  check Trace.Area.Parcall_local "Local";
  check Trace.Area.Parcall_global "Global";
  check Trace.Area.Parcall_count "Global";
  check Trace.Area.Marker "Local";
  check Trace.Area.Goal_frame "Global";
  check Trace.Area.Message "Global";
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Trace.Area.name a ^ " locked")
        (List.mem a
           [ Trace.Area.Parcall_count; Trace.Area.Goal_frame;
             Trace.Area.Message ])
        (Trace.Area.locked a))
    Trace.Area.all

let test_buffer_sink () =
  let buf = Trace.Sink.Buffer_sink.create ~capacity:2 () in
  let sink = Trace.Sink.buffer buf in
  for i = 0 to 99 do
    Trace.Sink.emit sink
      {
        Trace.Ref_record.pe = i mod 4;
        addr = i * 8;
        area = Trace.Area.Heap;
        op = (if i mod 2 = 0 then Trace.Ref_record.Read else Trace.Ref_record.Write);
      }
  done;
  Alcotest.(check int) "length" 100 (Trace.Sink.Buffer_sink.length buf);
  let r = Trace.Sink.Buffer_sink.get buf 10 in
  Alcotest.(check int) "pe" 2 r.Trace.Ref_record.pe;
  Alcotest.(check int) "addr" 80 r.Trace.Ref_record.addr;
  let count = ref 0 in
  Trace.Sink.Buffer_sink.iter (fun _ -> incr count) buf;
  Alcotest.(check int) "iter" 100 !count

let test_buffer_sink_get_sync () =
  let buf = Trace.Sink.Buffer_sink.create () in
  Trace.Sink.emit_sync (Trace.Sink.buffer buf)
    { Trace.Ref_record.spe = 1; saddr = 64; kind = Trace.Ref_record.Publish };
  Alcotest.check_raises "names Buffer_sink.get"
    (Invalid_argument "Buffer_sink.get: word 0 is a sync event") (fun () ->
      ignore (Trace.Sink.Buffer_sink.get buf 0))

(* Buffer_sink against a list model, across chunk boundaries.  The
   buffer keeps its words in chunks of 2^16 ([Sink.Buffer_sink]'s
   [chunk_words]); only the first grows by doubling. *)
let chunk = 1 lsl 16

(* Word [i] of a mixed stream: every seventh a sync event. *)
let mixed_word i =
  if i mod 7 = 3 then
    Trace.Ref_record.pack_sync
      {
        Trace.Ref_record.spe = i mod 5;
        saddr = i * 8;
        kind =
          List.nth
            Trace.Ref_record.[ Acquire; Release; Publish; Steal; Join ]
            (i mod 5);
      }
  else
    Trace.Ref_record.pack
      {
        Trace.Ref_record.pe = i mod 9;
        addr = i * 3;
        area = Trace.Area.of_int (i mod Trace.Area.count);
        op = (if i mod 2 = 0 then Trace.Ref_record.Read else Trace.Ref_record.Write);
      }

let test_buffer_sink_model () =
  let module B = Trace.Sink.Buffer_sink in
  List.iter
    (fun capacity ->
      List.iter
        (fun n ->
          let label = Printf.sprintf "capacity %d, %d words" capacity n in
          let buf = B.create ~capacity () in
          for i = 0 to n - 1 do
            B.push buf (mixed_word i)
          done;
          let model = List.init n mixed_word in
          let accesses = List.filter (fun w -> not (Trace.Ref_record.is_sync_word w)) model in
          Alcotest.(check int) (label ^ ": length") n (B.length buf);
          Alcotest.(check int) (label ^ ": n_syncs")
            (n - List.length accesses) (B.n_syncs buf);
          let packed = ref [] in
          B.iter_packed (fun w -> packed := w :: !packed) buf;
          Alcotest.(check (list int)) (label ^ ": iter_packed") model (List.rev !packed);
          let seen = ref [] in
          B.iter (fun r -> seen := r :: !seen) buf;
          Alcotest.(check bool) (label ^ ": iter") true
            (List.rev !seen = List.map Trace.Ref_record.unpack accesses);
          let entries = ref [] in
          B.iter_entries (fun e -> entries := e :: !entries) buf;
          Alcotest.(check bool) (label ^ ": iter_entries") true
            (List.rev !entries = List.map Trace.Ref_record.unpack_entry model);
          List.iteri
            (fun i w ->
              if Trace.Ref_record.is_sync_word w then begin
                match B.get buf i with
                | _ -> Alcotest.failf "%s: get %d returned a sync word" label i
                | exception Invalid_argument msg ->
                  Alcotest.(check string) (label ^ ": get on a sync word")
                    (Printf.sprintf "Buffer_sink.get: word %d is a sync event" i)
                    msg
              end
              else if B.get buf i <> Trace.Ref_record.unpack w then
                Alcotest.failf "%s: get %d" label i)
            model;
          List.iter
            (fun i ->
              Alcotest.check_raises (Printf.sprintf "%s: get %d" label i)
                (Invalid_argument "Buffer_sink.get") (fun () -> ignore (B.get buf i)))
            [ -1; n ])
        [ 0; 1; chunk - 1; chunk; chunk + 1; 3 * chunk ])
    [ 1; 4096; chunk ]

(* Growing copies no word past the first chunk: retaining [n] words
   allocates at most [n] words, two chunks (the first one's doublings)
   and the directory in the major heap.  A buffer that doubles one
   array allocates about 3n for a 600K-word trace. *)
let test_buffer_sink_allocation () =
  let module B = Trace.Sink.Buffer_sink in
  List.iter
    (fun (capacity, n) ->
      let major_words () =
        let _, _, major = Gc.counters () in
        major
      in
      let before = major_words () in
      let buf = B.create ~capacity () in
      for i = 0 to n - 1 do
        B.push buf i
      done;
      let words = major_words () -. before in
      let chunks = (n + chunk - 1) / chunk in
      let bound = float_of_int (n + (2 * chunk) + (4 * chunks) + 64) in
      Alcotest.(check int) "length" n (B.length buf);
      if words > bound then
        Alcotest.failf "capacity %d, %d words: %.0f major words > %.0f" capacity n
          words bound)
    [ (chunk, 600_000); (4096, 600_000); (1, 3 * chunk); (4096, 1_000) ]

let test_tee_and_filter () =
  let b1 = Trace.Sink.Buffer_sink.create () in
  let b2 = Trace.Sink.Buffer_sink.create () in
  let sink =
    Trace.Sink.tee
      (Trace.Sink.buffer b1)
      (Trace.Sink.data_only (Trace.Sink.buffer b2))
  in
  let emit area =
    Trace.Sink.emit sink
      { Trace.Ref_record.pe = 0; addr = 0; area; op = Trace.Ref_record.Read }
  in
  emit Trace.Area.Heap;
  emit Trace.Area.Code;
  emit Trace.Area.Trail;
  Alcotest.(check int) "tee sees all" 3 (Trace.Sink.Buffer_sink.length b1);
  Alcotest.(check int) "data_only drops code" 2
    (Trace.Sink.Buffer_sink.length b2)

let test_areastats () =
  let st = Trace.Areastats.create ~pe_of_addr:Wam.Layout.pe_of_addr () in
  let sink = Trace.Areastats.sink st in
  (* PE 0 touching its own heap, then PE 1 touching PE 0's heap *)
  Trace.Sink.emit sink
    { Trace.Ref_record.pe = 0; addr = Wam.Layout.heap_base 0;
      area = Trace.Area.Heap; op = Trace.Ref_record.Write };
  Trace.Sink.emit sink
    { Trace.Ref_record.pe = 1; addr = Wam.Layout.heap_base 0;
      area = Trace.Area.Heap; op = Trace.Ref_record.Read };
  Trace.Sink.emit sink
    { Trace.Ref_record.pe = 0; addr = Wam.Layout.code_base;
      area = Trace.Area.Code; op = Trace.Ref_record.Read };
  Alcotest.(check int) "total" 3 (Trace.Areastats.total st);
  Alcotest.(check int) "heap refs" 2 (Trace.Areastats.refs st Trace.Area.Heap);
  Alcotest.(check int) "writes" 1 (Trace.Areastats.total_writes st);
  Alcotest.(check int) "remote" 1 (Trace.Areastats.remote st);
  Alcotest.(check int) "local" 2 (Trace.Areastats.local st);
  Alcotest.(check int) "data refs" 2 (Trace.Areastats.data_refs st)

let test_layout_regions () =
  (* stack-set areas are disjoint and correctly classified *)
  List.iter
    (fun pe ->
      let checks =
        [
          (Wam.Layout.heap_base pe, Trace.Area.Heap);
          (Wam.Layout.local_base pe, Trace.Area.Env_pvar);
          (Wam.Layout.control_base pe, Trace.Area.Choice_point);
          (Wam.Layout.trail_base pe, Trace.Area.Trail);
          (Wam.Layout.pdl_base pe, Trace.Area.Pdl);
          (Wam.Layout.goal_base pe, Trace.Area.Goal_frame);
          (Wam.Layout.msg_base pe, Trace.Area.Message);
        ]
      in
      List.iter
        (fun (addr, area) ->
          Alcotest.(check bool)
            (Printf.sprintf "pe %d area %s" pe (Trace.Area.name area))
            true
            (Wam.Layout.area_of_addr addr = area
            && Wam.Layout.pe_of_addr addr = pe))
        checks)
    [ 0; 1; 7; 63 ];
  Alcotest.(check int) "code region pe" (-1)
    (Wam.Layout.pe_of_addr Wam.Layout.code_base);
  Alcotest.(check bool) "limits nest" true
    (Wam.Layout.msg_limit 0 <= Wam.Layout.region_words)

let test_tracefile_roundtrip () =
  let buf = Trace.Sink.Buffer_sink.create () in
  let sink = Trace.Sink.buffer buf in
  for i = 0 to 999 do
    Trace.Sink.emit sink
      {
        Trace.Ref_record.pe = i mod 8;
        addr = Wam.Layout.heap_base (i mod 8) + i;
        area = Trace.Area.of_int (i mod Trace.Area.count);
        op = (if i mod 3 = 0 then Trace.Ref_record.Write else Trace.Ref_record.Read);
      }
  done;
  let path = Filename.temp_file "rapwam" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.Tracefile.write path buf;
      let buf2 = Trace.Tracefile.read path in
      Alcotest.(check int) "length" (Trace.Sink.Buffer_sink.length buf)
        (Trace.Sink.Buffer_sink.length buf2);
      for i = 0 to Trace.Sink.Buffer_sink.length buf - 1 do
        if Trace.Sink.Buffer_sink.get buf i <> Trace.Sink.Buffer_sink.get buf2 i
        then Alcotest.failf "record %d differs" i
      done)

let test_tracefile_bad_magic () =
  let path = Filename.temp_file "rapwam" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "NOTATRACE!!!";
      close_out oc;
      match Trace.Tracefile.read path with
      | exception Trace.Tracefile.Bad_file _ -> ()
      | _ -> Alcotest.fail "expected Bad_file")

let test_tracefile_truncated () =
  let buf = Trace.Sink.Buffer_sink.create () in
  let sink = Trace.Sink.buffer buf in
  for _ = 1 to 10 do
    Trace.Sink.emit sink
      { Trace.Ref_record.pe = 0; addr = 0; area = Trace.Area.Heap;
        op = Trace.Ref_record.Read }
  done;
  let path = Filename.temp_file "rapwam" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.Tracefile.write path buf;
      (* chop the last record *)
      let full = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full - 4)));
      (match Trace.Tracefile.read path with
      | exception Trace.Tracefile.Trace_error { offset; reason = _ } ->
        Alcotest.(check bool) "error offset past the header" true (offset >= 24)
      | _ -> Alcotest.fail "expected Trace_error on truncation");
      (* salvage keeps the clean prefix and reports the loss *)
      let buf2, damage = Trace.Tracefile.read_salvage path in
      Alcotest.(check bool) "salvage flags truncation" true
        damage.Trace.Tracefile.truncated;
      Alcotest.(check bool) "salvaged a strict prefix" true
        (Trace.Sink.Buffer_sink.length buf2
        < Trace.Sink.Buffer_sink.length buf))

(* Version 2 files (raw, unframed words) predate the checksummed
   framing; nothing writes them any more, and the reader rejects them
   as a typed error naming the version instead of decoding them. *)
let test_tracefile_legacy_v2 () =
  let buf = Trace.Sink.Buffer_sink.create () in
  let sink = Trace.Sink.buffer buf in
  for i = 0 to 99 do
    Trace.Sink.emit sink
      { Trace.Ref_record.pe = i mod 4; addr = 64 + i; area = Trace.Area.Heap;
        op = Trace.Ref_record.Read }
  done;
  let path = Filename.temp_file "rapwam" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc Trace.Tracefile.magic;
          let b8 = Bytes.create 8 in
          let put64 v =
            Bytes.set_int64_le b8 0 (Int64.of_int v);
            output_bytes oc b8
          in
          put64 2;
          put64 (Trace.Sink.Buffer_sink.length buf);
          Trace.Sink.Buffer_sink.iter_packed put64 buf);
      match Trace.Tracefile.read path with
      | exception Trace.Tracefile.Bad_file msg ->
        Alcotest.(check string) "names the file and the version"
          (path ^ ": unsupported trace version 2") msg
      | _ -> Alcotest.fail "a version-2 trace was read")

let suite =
  [
    Alcotest.test_case "pack roundtrip" `Quick test_pack_roundtrip;
    Alcotest.test_case "area int roundtrip" `Quick test_area_int_roundtrip;
    Alcotest.test_case "table 1 locality" `Quick test_table1_locality;
    Alcotest.test_case "buffer sink" `Quick test_buffer_sink;
    Alcotest.test_case "buffer sink get on a sync word" `Quick
      test_buffer_sink_get_sync;
    Alcotest.test_case "tee and filter" `Quick test_tee_and_filter;
    Alcotest.test_case "area stats" `Quick test_areastats;
    Alcotest.test_case "layout regions" `Quick test_layout_regions;
    Alcotest.test_case "tracefile roundtrip" `Quick test_tracefile_roundtrip;
    Alcotest.test_case "tracefile bad magic" `Quick test_tracefile_bad_magic;
    Alcotest.test_case "tracefile truncated" `Quick test_tracefile_truncated;
    Alcotest.test_case "tracefile legacy v2" `Quick test_tracefile_legacy_v2;
    Alcotest.test_case "buffer sink matches a list model across chunks" `Quick
      test_buffer_sink_model;
    Alcotest.test_case "buffer sink growth copies no word past a chunk" `Quick
      test_buffer_sink_allocation;
  ]
