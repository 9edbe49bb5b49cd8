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

(* ---------------- LRU stack ---------------- *)

module Stack = Cachesim.Multi.Stack

let test_lru_basics () =
  let c = Stack.create ~lines:[ 2 ] ~keys:8 in
  Alcotest.(check bool) "empty" false (Stack.level c 1 = 0);
  Alcotest.(check int) "no evict" (-1) (Stack.insert c 1 ~dirty:false);
  ignore (Stack.insert c 2 ~dirty:false);
  Alcotest.(check int) "occupancy" 2 (Stack.occupancy c 0);
  (* touching 1 makes 2 the LRU victim *)
  (match Stack.find c 1 with
  | -1 -> Alcotest.fail "line 1 missing"
  | w -> Stack.touch c w);
  (match Stack.insert c 3 ~dirty:false with
  | -1 -> Alcotest.fail "expected eviction"
  | victim ->
    Alcotest.(check int) "LRU victim" 2 victim;
    Alcotest.(check bool) "clean victim" false (Stack.evicted_dirty c <> 0));
  Alcotest.(check bool) "1 still resident" true (Stack.level c 1 = 0)

let test_lru_dirty_eviction () =
  let c = Stack.create ~lines:[ 1 ] ~keys:16 in
  ignore (Stack.insert c 7 ~dirty:true);
  match Stack.insert c 8 ~dirty:false with
  | -1 -> Alcotest.fail "expected eviction"
  | 7 when Stack.evicted_dirty c = 1 -> ()
  | l -> Alcotest.failf "wrong eviction (%d, %d)" l (Stack.evicted_dirty c)

let test_lru_invalidate () =
  let c = Stack.create ~lines:[ 4 ] ~keys:8 in
  ignore (Stack.insert c 1 ~dirty:false);
  Alcotest.(check bool) "inv hit" true (Stack.invalidate c 1);
  Alcotest.(check bool) "inv miss" false (Stack.invalidate c 1);
  Alcotest.(check int) "empty again" 0 (Stack.occupancy c 0)

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
   both over the prepared trace ([simulate]) and fed record by record
   through [reference] (the online path [Rapwam.Memmodel] takes)? *)
let reference ~n_pes ~line_words ~cache_words buf (kind, write_allocate, locality_override) =
  let config =
    Cachesim.Protocol.make ~line_words ~write_allocate ~kind ~cache_words ()
  in
  let m = Simref.Multi.create ?locality_override ~n_pes config in
  Simref.Multi.run_trace m buf;
  Simref.Multi.stats m

let agrees ~n_pes ~line_words ~cache_words buf ((kind, write_allocate, locality_override) as c) =
  let expected = reference ~n_pes ~line_words ~cache_words buf c in
  let prepared =
    Cachesim.Multi.simulate ~line_words ~write_allocate ?locality_override ~kind
      ~cache_words ~n_pes buf
  in
  let config =
    Cachesim.Protocol.make ~line_words ~write_allocate ~kind ~cache_words ()
  in
  let online = Cachesim.Multi.create ?locality_override ~n_pes config in
  Trace.Sink.Buffer_sink.iter_packed (Cachesim.Multi.reference online) buf;
  prepared = expected && Cachesim.Multi.stats online = expected

type random_trace = {
  pes : int;
  line : int; (* words per line *)
  lines : int; (* cache size in lines *)
  sizes : int list; (* a pass's sizes in lines: distinct, in random order *)
  refs : (int * int * int * int) list; (* pe, word address, area, op: 0 read 1 write 2 sync *)
}

(* 1-8 PEs; up to 64 distinct lines spread over six 4M-word PE
   regions; random areas and operations, with sync events mixed in. *)
let random_trace_gen =
  let open QCheck.Gen in
  let* pes = int_range 1 8 in
  let* line = oneofl [ 1; 2; 4; 8 ] in
  let* lines = int_range 1 8 in
  let* sizes = list_size (int_range 1 4) (int_range 1 8) in
  let sizes = List.fold_left (fun acc l -> if List.mem l acc then acc else l :: acc) [] sizes in
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
  { pes; line; lines; sizes; refs }

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

let random_trace =
  QCheck.make random_trace_gen ~print:(fun t ->
      Printf.sprintf "%d PEs, %d-word lines, %d-line caches, pass [%s], refs [%s]"
        t.pes t.line t.lines
        (String.concat "; " (List.map string_of_int t.sizes))
        (String.concat "; "
           (List.map
              (fun (pe, addr, area, op) -> Printf.sprintf "(%d,%d,%d,%d)" pe addr area op)
              t.refs)))

let prop_matches_reference =
  QCheck.Test.make ~name:"random traces = hash-table reference"
    ~count:300 ~long_factor:100 random_trace
    (fun t ->
      let buf = buffer_of_random t in
      List.for_all
        (agrees ~n_pes:t.pes ~line_words:t.line ~cache_words:(t.lines * t.line) buf)
        configs)

(* One pass serves every size of its list: each size's ten counters
   equal the reference's at that size alone, under every protocol x
   allocation policy x hybrid tag override. *)
let prop_pass_matches_reference =
  QCheck.Test.make ~name:"one pass = hash-table reference at every size"
    ~count:300 ~long_factor:100 random_trace
    (fun t ->
      let buf = buffer_of_random t in
      let p = Cachesim.Multi.prepare ~line_words:t.line buf in
      let cache_words = List.map (fun l -> l * t.line) t.sizes in
      List.for_all
        (fun ((kind, write_allocate, locality_override) as c) ->
          List.for_all2
            (fun cache_words m ->
              m = reference ~n_pes:t.pes ~line_words:t.line ~cache_words buf c)
            cache_words
            (Cachesim.Multi.simulate_sizes ?locality_override ~write_allocate ~kind
               ~cache_words ~n_pes:t.pes p))
        configs)

(* A pass over [sizes] (in lines, one-word lines) on a hand-made trace:
   its counters, after checking every size against the reference. *)
let pass ~kind ~write_allocate ~n_pes ~sizes refs =
  let buf = mk_trace refs in
  let got =
    Cachesim.Multi.simulate_sizes ~write_allocate ~kind ~cache_words:sizes ~n_pes
      (Cachesim.Multi.prepare ~line_words:1 buf)
  in
  List.iter2
    (fun cache_words m ->
      if m <> reference ~n_pes ~line_words:1 ~cache_words buf (kind, write_allocate, None)
      then Alcotest.failf "%d-line size differs from the reference" cache_words)
    sizes got;
  got

let field f ms = List.map f ms

(* Sizes of 1, 2 and 4 lines.  PE 0 reads A B C D: the 1-line size
   holds D, the 2-line size C D, the 4-line size all four.  PE 1's
   write-through write of C invalidates PE 0's copy, freeing a slot at
   the two sizes that held it.  PE 0's miss on E then evicts D at the
   full 1-line size and takes the free slot at the larger ones, so D
   hits at 2 lines and A still hits at 4. *)
let test_invalidation_frees_larger_sizes () =
  let a, b, c, d, e = (8, 16, 24, 32, 40) in
  let st =
    pass ~kind:Cachesim.Protocol.Write_through ~write_allocate:false ~n_pes:2
      ~sizes:[ 1; 2; 4 ]
      [ (0, r, a); (0, r, b); (0, r, c); (0, r, d); (1, w, c); (0, r, e); (0, r, d); (0, r, a) ]
  in
  Alcotest.(check (list int)) "read misses" [ 7; 6; 5 ]
    (field (fun m -> m.Cachesim.Metrics.read_misses) st);
  (* the same on one stack *)
  let s = Stack.create ~lines:[ 1; 2; 4 ] ~keys:8 in
  List.iter (fun l -> ignore (Stack.insert s l ~dirty:false)) [ 1; 2; 3; 4 ];
  Alcotest.(check bool) "C dropped" true (Stack.invalidate s 3);
  Alcotest.(check (list int)) "a free slot at 2 and 4 lines" [ 1; 1; 3 ]
    (List.map (Stack.occupancy s) [ 0; 1; 2 ]);
  Alcotest.(check int) "E evicts nothing from the stack" (-1) (Stack.insert s 5 ~dirty:false);
  Alcotest.(check (list int)) "every size full" [ 1; 2; 4 ]
    (List.map (Stack.occupancy s) [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "levels of A B D E" [ 2; 2; 1; 0 ]
    (List.map (Stack.level s) [ 1; 2; 4; 5 ])

(* Sizes of 1 and 2 lines, copy-back without write-allocate.  After
   reads of A and B, A is held at 2 lines only; the write of A hits
   there (A becomes the MRU and dirty) and misses at 1 line (a word
   through, no fill).  The read of C then evicts B, not A, at 2 lines;
   A stays absent at 1 line; the last read of C evicts the dirty A at
   2 lines only. *)
let test_no_allocate_write_hits_larger_sizes () =
  let a, b, c = (8, 16, 24) in
  let st =
    pass ~kind:Cachesim.Protocol.Copyback ~write_allocate:false ~n_pes:1 ~sizes:[ 1; 2 ]
      [ (0, r, a); (0, r, b); (0, w, a); (0, r, c); (0, r, a); (0, r, b); (0, r, c) ]
  in
  Alcotest.(check (list int)) "read misses" [ 6; 5 ]
    (field (fun m -> m.Cachesim.Metrics.read_misses) st);
  Alcotest.(check (list int)) "write misses" [ 1; 0 ]
    (field (fun m -> m.Cachesim.Metrics.write_misses) st);
  Alcotest.(check (list int)) "words through" [ 1; 0 ]
    (field (fun m -> m.Cachesim.Metrics.wt_words) st);
  Alcotest.(check (list int)) "write-backs" [ 0; 1 ]
    (field (fun m -> m.Cachesim.Metrics.writebacks) st);
  (* the same on one stack *)
  let s = Stack.create ~lines:[ 1; 2 ] ~keys:4 in
  ignore (Stack.insert s 1 ~dirty:false);
  ignore (Stack.insert s 2 ~dirty:false);
  Alcotest.(check int) "A held at 2 lines only" 1 (Stack.level s 1);
  Stack.touch s (Stack.find s 1);
  Alcotest.(check int) "the touch keeps A's level" 1 (Stack.level s 1);
  Alcotest.(check int) "C pushes B out of the stack" 2 (Stack.insert s 3 ~dirty:false);
  Alcotest.(check (list int)) "levels of A and C" [ 1; 0 ] (List.map (Stack.level s) [ 1; 3 ])

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

(* ---------------- prepared traces ---------------- *)

(* What [prepare] keeps of a trace: every access and nothing else, in
   order, with its PE, area and op; one id per line; and the per-area
   read and write counts. *)
let prop_prepare_keeps_accesses =
  QCheck.Test.make ~name:"prepare keeps every access and its line" ~count:300
    random_trace (fun t ->
      let buf = buffer_of_random t in
      let p = Cachesim.Multi.prepare ~line_words:t.line buf in
      let accesses = List.filter (fun (_, _, _, op) -> op <> 2) t.refs in
      let id_of_line = Hashtbl.create 64 and line_of_id = Hashtbl.create 64 in
      (* one id per line, one line per id *)
      let same_line line id =
        match (Hashtbl.find_opt id_of_line line, Hashtbl.find_opt line_of_id id) with
        | None, None ->
          Hashtbl.add id_of_line line id;
          Hashtbl.add line_of_id id line;
          true
        | Some id', Some line' -> id' = id && line' = line
        | _ -> false
      in
      let counted area op =
        List.length (List.filter (fun (_, _, a, o) -> a = area && o = op) accesses)
      in
      Cachesim.Multi.accesses p
      = Trace.Sink.Buffer_sink.length buf - Trace.Sink.Buffer_sink.n_syncs buf
      && Cachesim.Multi.accesses p = List.length accesses
      && List.for_all Fun.id
           (List.mapi
              (fun i (pe, addr, area, op) ->
                let a = Cachesim.Multi.access p i in
                a.Trace.Ref_record.pe = pe
                && Trace.Area.to_int a.Trace.Ref_record.area = area
                && a.Trace.Ref_record.op
                   = (if op = 1 then Trace.Ref_record.Write else Trace.Ref_record.Read)
                && same_line (addr / t.line) a.Trace.Ref_record.addr)
              accesses)
      && List.for_all
           (fun area ->
             Cachesim.Multi.area_counts p area
             = (counted (Trace.Area.to_int area) 0, counted (Trace.Area.to_int area) 1))
           Trace.Area.all)

(* A trace with more PEs than caches is refused with the same message
   on both paths, naming the first PE without a cache: the prepared
   path checks the bound once per trace, the online path per
   reference. *)
let four_pe_trace () = mk_trace [ (0, r, 8); (1, w, 8); (2, r, 16); (3, w, 24); (2, w, 8) ]

let pe_bound_message f =
  match f () with
  | exception Invalid_argument msg -> msg
  | () -> Alcotest.fail "a PE without a cache was accepted"

let test_pe_bound_both_paths () =
  let buf = four_pe_trace () in
  let kind = Cachesim.Protocol.Write_in_broadcast in
  let prepared =
    pe_bound_message (fun () ->
        ignore (Cachesim.Multi.simulate ~kind ~cache_words:64 ~n_pes:2 buf))
  in
  let online =
    pe_bound_message (fun () ->
        let m =
          Cachesim.Multi.create ~n_pes:2
            (Cachesim.Protocol.make ~kind ~cache_words:64 ())
        in
        Trace.Sink.Buffer_sink.iter_packed (Cachesim.Multi.reference m) buf)
  in
  Alcotest.(check string) "one message on both paths" online prepared;
  Alcotest.(check string) "names the PE and the caches"
    "Cachesim.Multi: reference by PE 2 but only 2 caches (was the trace \
     produced with more workers?)"
    prepared

(* A line address is a shift of the word address, so a line size that
   is not a power of two is refused where a configuration or a
   prepared trace is made, even when it divides the cache size. *)
let test_line_sizes_are_powers_of_two () =
  let buf = four_pe_trace () in
  let kind = Cachesim.Protocol.Write_through in
  List.iter
    (fun line_words ->
      ignore (Cachesim.Protocol.make ~line_words ~kind ~cache_words:(64 * line_words) ());
      ignore (Cachesim.Multi.prepare ~line_words buf))
    [ 1; 2; 4; 8; 16 ];
  List.iter
    (fun line_words ->
      let refused what f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "%s took %d-word lines" what line_words
      in
      refused "Protocol.make" (fun () ->
          ignore (Cachesim.Protocol.make ~line_words ~kind ~cache_words:(64 * line_words) ()));
      refused "Multi.prepare" (fun () -> ignore (Cachesim.Multi.prepare ~line_words buf)))
    [ 3; 6; 12; 0; -4 ]

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
    QCheck_alcotest.to_alcotest prop_prepare_keeps_accesses;
    Alcotest.test_case "PE bound on both paths" `Quick test_pe_bound_both_paths;
    Alcotest.test_case "line sizes are powers of two" `Quick
      test_line_sizes_are_powers_of_two;
    QCheck_alcotest.to_alcotest prop_pass_matches_reference;
    Alcotest.test_case "invalidation frees a slot at the sizes that held the line" `Quick
      test_invalidation_frees_larger_sizes;
    Alcotest.test_case "no-allocate write hits only the larger sizes" `Quick
      test_no_allocate_write_hits_larger_sizes;
  ]
