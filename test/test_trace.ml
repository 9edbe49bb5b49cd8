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
    Alcotest.test_case "tee and filter" `Quick test_tee_and_filter;
    Alcotest.test_case "area stats" `Quick test_areastats;
    Alcotest.test_case "layout regions" `Quick test_layout_regions;
    Alcotest.test_case "tracefile roundtrip" `Quick test_tracefile_roundtrip;
    Alcotest.test_case "tracefile bad magic" `Quick test_tracefile_bad_magic;
    Alcotest.test_case "tracefile truncated" `Quick test_tracefile_truncated;
    Alcotest.test_case "tracefile legacy v2" `Quick test_tracefile_legacy_v2;
  ]
