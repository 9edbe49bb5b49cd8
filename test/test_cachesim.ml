(* Unit tests for the coherent-cache simulators: LRU mechanics,
   protocol transitions and traffic accounting on hand-built traces. *)

let mk_trace refs =
  let buf = Trace.Sink.Buffer_sink.create () in
  let sink = Trace.Sink.buffer buf in
  List.iter
    (fun (pe, op, addr) ->
      Trace.Sink.emit sink
        { Trace.Ref_record.pe; addr; area = Trace.Area.Heap; op })
    refs;
  buf

let r = Trace.Ref_record.Read
let w = Trace.Ref_record.Write

let simulate ?line_words ?write_allocate ~kind ~cache_words ~n_pes refs =
  Cachesim.Multi.simulate ?line_words ?write_allocate ~kind ~cache_words
    ~n_pes (mk_trace refs)

(* ---------------- LRU cache ---------------- *)

let test_lru_basics () =
  let c = Cachesim.Cache.create ~lines:2 in
  Alcotest.(check bool) "empty" false (Cachesim.Cache.resident c 1);
  Alcotest.(check int) "no evict" (-1) (Cachesim.Cache.insert c 1 ~dirty:false);
  ignore (Cachesim.Cache.insert c 2 ~dirty:false);
  Alcotest.(check int) "occupancy" 2 (Cachesim.Cache.occupancy c);
  (* touching 1 makes 2 the LRU victim *)
  (match Cachesim.Cache.find c 1 with
  | -1 -> Alcotest.fail "line 1 missing"
  | slot -> Cachesim.Cache.touch c slot);
  (match Cachesim.Cache.insert c 3 ~dirty:false with
  | -1 -> Alcotest.fail "expected eviction"
  | victim ->
    Alcotest.(check int) "LRU victim" 2 victim;
    Alcotest.(check bool) "clean victim" false (Cachesim.Cache.evicted_dirty c));
  Alcotest.(check bool) "1 still resident" true (Cachesim.Cache.resident c 1)

let test_lru_dirty_eviction () =
  let c = Cachesim.Cache.create ~lines:1 in
  ignore (Cachesim.Cache.insert c 7 ~dirty:true);
  match Cachesim.Cache.insert c 8 ~dirty:false with
  | -1 -> Alcotest.fail "expected eviction"
  | 7 when Cachesim.Cache.evicted_dirty c -> ()
  | l -> Alcotest.failf "wrong eviction (%d, %b)" l (Cachesim.Cache.evicted_dirty c)

let test_lru_invalidate () =
  let c = Cachesim.Cache.create ~lines:4 in
  ignore (Cachesim.Cache.insert c 1 ~dirty:false);
  Alcotest.(check bool) "inv hit" true (Cachesim.Cache.invalidate c 1);
  Alcotest.(check bool) "inv miss" false (Cachesim.Cache.invalidate c 1);
  Alcotest.(check int) "empty again" 0 (Cachesim.Cache.occupancy c)

(* ---------------- protocols ---------------- *)

let test_copyback_read_locality () =
  (* 8 reads of the same line: 1 fill of 4 words *)
  let st =
    simulate ~kind:Cachesim.Protocol.Copyback ~cache_words:64 ~n_pes:1
      (List.init 8 (fun _ -> (0, r, 100)))
  in
  Alcotest.(check int) "one fill" 1 st.Cachesim.Metrics.fills;
  Alcotest.(check int) "bus words" 4 st.Cachesim.Metrics.bus_words;
  Alcotest.(check int) "misses" 1 (Cachesim.Metrics.misses st)

let test_copyback_writeback_on_eviction () =
  (* dirty a line, then stream reads through a 2-line cache to evict it *)
  let refs =
    (0, w, 0)
    :: List.concat_map (fun i -> [ (0, r, 16 + (8 * i)) ]) [ 0; 1; 2; 3 ]
  in
  let st =
    simulate ~kind:Cachesim.Protocol.Copyback ~cache_words:8 ~line_words:4
      ~write_allocate:true ~n_pes:1 refs
  in
  Alcotest.(check int) "one writeback" 1 st.Cachesim.Metrics.writebacks

let test_write_through_always_writes () =
  let st =
    simulate ~kind:Cachesim.Protocol.Write_through ~cache_words:64 ~n_pes:1
      [ (0, w, 4); (0, w, 4); (0, w, 4) ]
  in
  Alcotest.(check int) "wt words" 3 st.Cachesim.Metrics.wt_words;
  Alcotest.(check int) "bus" 3 st.Cachesim.Metrics.bus_words

let test_write_through_invalidates_remote () =
  (* PE1 caches a line, PE0 writes it: PE1's next read must miss *)
  let st =
    simulate ~kind:Cachesim.Protocol.Write_through ~cache_words:64 ~n_pes:2
      ~write_allocate:false
      [ (1, r, 8); (0, w, 8); (1, r, 8) ]
  in
  (* fills: PE1 initial, PE1 after invalidation *)
  Alcotest.(check int) "two fills" 2 st.Cachesim.Metrics.fills

let test_write_in_invalidation_broadcast () =
  (* both PEs share the line; a write by PE0 to a shared line costs a
     one-word invalidation *)
  let st =
    simulate ~kind:Cachesim.Protocol.Write_in_broadcast ~cache_words:64
      ~n_pes:2
      [ (0, r, 8); (1, r, 8); (0, w, 8) ]
  in
  Alcotest.(check int) "one invalidation" 1 st.Cachesim.Metrics.invalidations;
  (* 2 fills (4+4) + 1 invalidation word *)
  Alcotest.(check int) "bus words" 9 st.Cachesim.Metrics.bus_words

let test_write_in_private_writes_free () =
  let st =
    simulate ~kind:Cachesim.Protocol.Write_in_broadcast ~cache_words:64
      ~n_pes:2
      [ (0, r, 8); (0, w, 8); (0, w, 9); (0, w, 10) ]
  in
  (* one fill; private-line writes generate no coherency traffic *)
  Alcotest.(check int) "bus words" 4 st.Cachesim.Metrics.bus_words

let test_write_in_remote_dirty_flush () =
  (* PE0 dirties a line; PE1 reads it: the dirty copy must be flushed *)
  let st =
    simulate ~kind:Cachesim.Protocol.Write_in_broadcast ~cache_words:64
      ~write_allocate:true ~n_pes:2
      [ (0, w, 8); (1, r, 8) ]
  in
  Alcotest.(check int) "flush writeback" 1 st.Cachesim.Metrics.writebacks

let test_update_protocol_updates () =
  (* shared line: PE0's writes broadcast one-word updates; PE1 keeps
     hitting *)
  let st =
    simulate ~kind:Cachesim.Protocol.Write_through_broadcast ~cache_words:64
      ~n_pes:2
      [ (0, r, 8); (1, r, 8); (0, w, 8); (1, r, 8) ]
  in
  Alcotest.(check int) "one update" 1 st.Cachesim.Metrics.updates;
  (* PE1's second read hits (its copy was updated, not invalidated) *)
  Alcotest.(check int) "two fills only" 2 st.Cachesim.Metrics.fills

let test_hybrid_tag_difference () =
  (* same access pattern, Local vs Global tags *)
  let tagged area op_list =
    let buf = Trace.Sink.Buffer_sink.create () in
    let sink = Trace.Sink.buffer buf in
    List.iter
      (fun (pe, op, addr) ->
        Trace.Sink.emit sink { Trace.Ref_record.pe; addr; area; op })
      op_list;
    buf
  in
  let refs = [ (0, r, 8); (0, w, 8); (0, w, 8); (0, w, 8) ] in
  let local_st =
    Cachesim.Multi.simulate ~kind:Cachesim.Protocol.Hybrid ~cache_words:64
      ~n_pes:2
      (tagged Trace.Area.Trail refs)
  in
  let global_st =
    Cachesim.Multi.simulate ~kind:Cachesim.Protocol.Hybrid ~cache_words:64
      ~n_pes:2
      (tagged Trace.Area.Heap refs)
  in
  (* local data: copyback (fill only); global: every write through *)
  Alcotest.(check int) "local bus" 4 local_st.Cachesim.Metrics.bus_words;
  Alcotest.(check int) "global bus" 7 global_st.Cachesim.Metrics.bus_words

let test_no_write_allocate () =
  let st =
    simulate ~kind:Cachesim.Protocol.Copyback ~cache_words:64
      ~write_allocate:false ~n_pes:1
      [ (0, w, 8); (0, r, 8) ]
  in
  (* the write bypasses (1 word); the read then misses (4 words) *)
  Alcotest.(check int) "bus" 5 st.Cachesim.Metrics.bus_words;
  Alcotest.(check int) "write miss" 1 st.Cachesim.Metrics.write_misses

let test_traffic_ratio_bounds () =
  let bench = Benchlib.Inputs.benchmark "deriv" in
  let res = Benchlib.Runner.run_rapwam ~n_pes:2 bench in
  List.iter
    (fun kind ->
      let st =
        Cachesim.Multi.simulate ~kind ~cache_words:1024 ~n_pes:2
          res.Benchlib.Runner.trace
      in
      let tr = Cachesim.Metrics.traffic_ratio st in
      if tr < 0.0 || tr > 2.0 then
        Alcotest.failf "%s traffic ratio out of bounds: %f"
          (Cachesim.Protocol.kind_name kind)
          tr)
    Cachesim.Protocol.all_kinds

let test_protocol_ordering_on_real_trace () =
  (* the paper's ordering: broadcast <= hybrid <= write-through at
     moderate sizes *)
  let bench = Benchlib.Inputs.benchmark "qsort" in
  let res = Benchlib.Runner.run_rapwam ~n_pes:4 bench in
  let ratio kind =
    Cachesim.Metrics.traffic_ratio
      (fst
         (Cachesim.Multi.simulate_best ~kind ~cache_words:1024 ~n_pes:4
            res.Benchlib.Runner.trace))
  in
  let wib = ratio Cachesim.Protocol.Write_in_broadcast in
  let hyb = ratio Cachesim.Protocol.Hybrid in
  let wt = ratio Cachesim.Protocol.Write_through in
  if not (wib <= hyb +. 1e-9 && hyb <= wt +. 1e-9) then
    Alcotest.failf "ordering violated: wib %.3f hybrid %.3f wt %.3f" wib hyb
      wt

let test_bigger_cache_never_much_worse () =
  let bench = Benchlib.Inputs.benchmark "tak" in
  let res = Benchlib.Runner.run_rapwam ~n_pes:2 bench in
  let ratio size =
    Cachesim.Metrics.traffic_ratio
      (fst
         (Cachesim.Multi.simulate_best
            ~kind:Cachesim.Protocol.Write_in_broadcast ~cache_words:size
            ~n_pes:2 res.Benchlib.Runner.trace))
  in
  let prev = ref (ratio 64) in
  List.iter
    (fun size ->
      let tr = ratio size in
      if tr > !prev +. 0.02 then
        Alcotest.failf "traffic grew with cache size at %d: %.3f -> %.3f"
          size !prev tr;
      prev := tr)
    [ 128; 256; 512; 1024; 2048 ]

(* ---------------- timing model ---------------- *)

let test_timing_no_traffic () =
  let st = Cachesim.Metrics.create () in
  let e = Cachesim.Timing.estimate ~rounds:1000 ~n_pes:4 st in
  (* no bus words: time = ideal *)
  if abs_float (e.Cachesim.Timing.cycles -. e.Cachesim.Timing.ideal_cycles)
     > 1e-6
  then Alcotest.fail "stalls without traffic";
  Alcotest.(check bool) "efficiency 1" true
    (abs_float (e.Cachesim.Timing.memory_efficiency -. 1.0) < 1e-9)

let test_timing_monotone_in_traffic () =
  let with_bus words =
    let st = Cachesim.Metrics.create () in
    st.Cachesim.Metrics.bus_words <- words;
    st.Cachesim.Metrics.reads <- 100_000;
    (Cachesim.Timing.estimate ~rounds:10_000 ~n_pes:4 st)
      .Cachesim.Timing.cycles
  in
  let c1 = with_bus 1_000 in
  let c2 = with_bus 10_000 in
  let c3 = with_bus 30_000 in
  Alcotest.(check bool) "monotone" true (c1 < c2 && c2 < c3)

let test_timing_fixed_point_consistent () =
  let st = Cachesim.Metrics.create () in
  st.Cachesim.Metrics.bus_words <- 20_000;
  let e = Cachesim.Timing.estimate ~rounds:10_000 ~n_pes:8 st in
  Alcotest.(check bool) "utilization < 1" true
    (e.Cachesim.Timing.bus_utilization < 1.0);
  Alcotest.(check bool) "stalls positive" true
    (e.Cachesim.Timing.stall_cycles > 0.0);
  Alcotest.(check bool) "cycles = ideal + stall" true
    (abs_float
       (e.Cachesim.Timing.cycles
       -. (e.Cachesim.Timing.ideal_cycles +. e.Cachesim.Timing.stall_cycles))
    < 1e-6)

(* The hybrid protocol's static area tags must land between the two
   ablation extremes: forcing every tag Local (all copy-back) is a
   lower bound on bus traffic, forcing every tag Global (all
   write-through) an upper bound, and the real tag assignment sits
   strictly between them on a parallel trace. *)
let test_tag_ablation_ordering () =
  let b =
    List.find
      (fun (x : Benchlib.Programs.benchmark) ->
        x.Benchlib.Programs.name = "qsort")
      (Benchlib.Inputs.small_benchmarks ())
  in
  let r = Benchlib.Runner.run_rapwam ~n_pes:8 b in
  let ratio ?locality_override () =
    Cachesim.Metrics.traffic_ratio
      (Cachesim.Multi.simulate ?locality_override
         ~kind:Cachesim.Protocol.Hybrid ~cache_words:1024 ~n_pes:8
         r.Benchlib.Runner.trace)
  in
  let all_local = ratio ~locality_override:false () in
  let tags = ratio () in
  let all_global = ratio ~locality_override:true () in
  Alcotest.(check bool)
    (Printf.sprintf "all-local %.3f <= tags %.3f" all_local tags)
    true (all_local <= tags);
  Alcotest.(check bool)
    (Printf.sprintf "tags %.3f <= all-global %.3f" tags all_global)
    true (tags <= all_global);
  Alcotest.(check bool) "ablation extremes differ" true
    (all_global -. all_local > 0.01)

(* ---------------- against the hash-table reference ---------------- *)

(* [Simref] is the simulator as it was before its directory and caches
   became arrays indexed by dense line ids.  The two must agree on
   every counter, under every protocol x allocation policy x hybrid tag
   override. *)
let configs =
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun write_allocate ->
          List.map
            (fun locality_override -> (kind, write_allocate, locality_override))
            [ None; Some true; Some false ])
        [ true; false ])
    Cachesim.Protocol.all_kinds

(* Does the array simulator match the reference on one configuration,
   both over the packed trace and fed record by record through
   [reference] (the online path [Rapwam.Memmodel] takes)? *)
let agrees ~n_pes ~line_words ~cache_words buf (kind, write_allocate, locality_override) =
  let config =
    Cachesim.Protocol.make ~line_words ~write_allocate ~kind ~cache_words ()
  in
  let expected =
    let m = Simref.Multi.create ?locality_override ~n_pes config in
    Simref.Multi.run_trace m buf;
    Simref.Multi.stats m
  in
  let packed = Cachesim.Multi.create ?locality_override ~n_pes config in
  Cachesim.Multi.run_trace packed buf;
  let online = Cachesim.Multi.create ?locality_override ~n_pes config in
  Trace.Sink.Buffer_sink.iter (Cachesim.Multi.reference online) buf;
  Cachesim.Multi.stats packed = expected && Cachesim.Multi.stats online = expected

type random_trace = {
  pes : int;
  line : int; (* words per line *)
  lines : int; (* cache size in lines *)
  refs : (int * int * int * int) list; (* pe, word address, area, op: 0 read 1 write 2 sync *)
}

(* 1-8 PEs; up to 64 distinct lines spread over six 4M-word PE
   regions; random areas and operations, with sync events mixed in. *)
let random_trace_gen =
  let open QCheck.Gen in
  let* pes = int_range 1 8 in
  let* line = oneofl [ 1; 2; 4; 8 ] in
  let* lines = int_range 1 8 in
  let* pool = list_size (int_range 1 64) (pair (int_bound 5) (int_bound 255)) in
  let pool = Array.of_list pool in
  let+ refs =
    list_size (int_range 1 400)
      (let* pe = int_bound (pes - 1) in
       let* region, l = oneofa pool in
       let* word = int_bound (line - 1) in
       let* area = int_bound (Trace.Area.count - 1) in
       let+ op = frequency [ (5, return 0); (4, return 1); (1, return 2) ] in
       (pe, (region lsl Wam.Layout.region_bits) + (l * line) + word, area, op))
  in
  { pes; line; lines; refs }

let buffer_of_random t =
  let buf = Trace.Sink.Buffer_sink.create () in
  let sink = Trace.Sink.buffer buf in
  List.iter
    (fun (pe, addr, area, op) ->
      if op = 2 then
        Trace.Sink.emit_sync sink { Trace.Ref_record.spe = pe; saddr = addr; kind = Acquire }
      else
        Trace.Sink.emit sink
          {
            Trace.Ref_record.pe;
            addr;
            area = Trace.Area.of_int area;
            op = (if op = 1 then Trace.Ref_record.Write else Trace.Ref_record.Read);
          })
    t.refs;
  buf

let prop_matches_reference =
  QCheck.Test.make ~name:"random traces = hash-table reference"
    ~count:300 ~long_factor:100
    (QCheck.make random_trace_gen ~print:(fun t ->
         Printf.sprintf "%d PEs, %d-word lines, %d-line caches, refs [%s]" t.pes t.line
           t.lines
           (String.concat "; "
              (List.map
                 (fun (pe, addr, area, op) -> Printf.sprintf "(%d,%d,%d,%d)" pe addr area op)
                 t.refs))))
    (fun t ->
      let buf = buffer_of_random t in
      List.for_all
        (agrees ~n_pes:t.pes ~line_words:t.line ~cache_words:(t.lines * t.line) buf)
        configs)

(* The quick traces at 1/4/8 PEs, at line sizes the pins do not cover:
   12 traces x 30 configurations. *)
let test_matches_reference_on_quick_traces () =
  List.iter
    (fun (b : Benchlib.Programs.benchmark) ->
      List.iter
        (fun (n_pes, line_words, cache_words) ->
          let buf = (Benchlib.Runner.run_rapwam ~n_pes b).Benchlib.Runner.trace in
          List.iter
            (fun ((kind, write_allocate, locality_override) as c) ->
              if not (agrees ~n_pes ~line_words ~cache_words buf c) then
                Alcotest.failf
                  "%s at %d PEs, %d-word lines, %d words, %s, allocate %b, override %s"
                  b.Benchlib.Programs.name n_pes line_words cache_words
                  (Cachesim.Protocol.kind_name kind) write_allocate
                  (match locality_override with None -> "none" | Some v -> string_of_bool v))
            configs)
        [ (1, 8, 1024); (4, 2, 128); (8, 1, 64) ])
    (Benchlib.Inputs.small_benchmarks ())

(* The reference path allocates nothing: what [simulate] allocates on
   the minor heap is its set-up, a small fraction of a word per
   reference over a whole trace. *)
let test_no_allocation_per_reference () =
  let b =
    List.find
      (fun (x : Benchlib.Programs.benchmark) -> x.Benchlib.Programs.name = "qsort")
      (Benchlib.Inputs.small_benchmarks ())
  in
  let buf = (Benchlib.Runner.run_rapwam ~n_pes:8 b).Benchlib.Runner.trace in
  List.iter
    (fun cache_words ->
      List.iter
        (fun kind ->
          let before = Gc.minor_words () in
          let m = Cachesim.Multi.simulate ~kind ~cache_words ~n_pes:8 buf in
          let per_ref =
            (Gc.minor_words () -. before) /. float_of_int (Cachesim.Metrics.refs m)
          in
          if per_ref >= 0.25 then
            Alcotest.failf "%s at %d words: %.3f minor words per reference"
              (Cachesim.Protocol.kind_name kind) cache_words per_ref)
        Cachesim.Protocol.all_kinds)
    [ 64; 1024 ]

let suite =
  [
    Alcotest.test_case "LRU basics" `Quick test_lru_basics;
    Alcotest.test_case "LRU dirty eviction" `Quick test_lru_dirty_eviction;
    Alcotest.test_case "LRU invalidate" `Quick test_lru_invalidate;
    Alcotest.test_case "copyback locality" `Quick test_copyback_read_locality;
    Alcotest.test_case "copyback writeback" `Quick
      test_copyback_writeback_on_eviction;
    Alcotest.test_case "WT always writes" `Quick
      test_write_through_always_writes;
    Alcotest.test_case "WT invalidates remote" `Quick
      test_write_through_invalidates_remote;
    Alcotest.test_case "WIB invalidation" `Quick
      test_write_in_invalidation_broadcast;
    Alcotest.test_case "WIB private free" `Quick
      test_write_in_private_writes_free;
    Alcotest.test_case "WIB dirty flush" `Quick test_write_in_remote_dirty_flush;
    Alcotest.test_case "update protocol" `Quick test_update_protocol_updates;
    Alcotest.test_case "hybrid tags" `Quick test_hybrid_tag_difference;
    Alcotest.test_case "tag ablation ordering" `Quick
      test_tag_ablation_ordering;
    Alcotest.test_case "no-write-allocate" `Quick test_no_write_allocate;
    Alcotest.test_case "ratio bounds" `Quick test_traffic_ratio_bounds;
    Alcotest.test_case "protocol ordering" `Quick
      test_protocol_ordering_on_real_trace;
    Alcotest.test_case "monotone vs size" `Quick
      test_bigger_cache_never_much_worse;
    Alcotest.test_case "timing: no traffic" `Quick test_timing_no_traffic;
    Alcotest.test_case "timing: monotone" `Quick test_timing_monotone_in_traffic;
    Alcotest.test_case "timing: fixed point" `Quick
      test_timing_fixed_point_consistent;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "quick traces = hash-table reference" `Quick
      test_matches_reference_on_quick_traces;
    Alcotest.test_case "no allocation per reference" `Quick
      test_no_allocation_per_reference;
  ]
