(* The multiprocessor coherent-cache simulation: one cache per PE, a
   shared bus, and a line directory (who holds what) used to decide
   sharing.  Processes packed RAP-WAM traces and produces traffic
   statistics per protocol (paper, §3.2).

   Bus accounting, in words:
     line fill                      L
     dirty-victim write-back       L
     remote-dirty flush on a miss  L
     write-through / update word   1
     explicit invalidation          1
   Invalidations that piggy-back on a memory write (write-through and
   hybrid global writes are observed by snooping) cost nothing extra.

   Data layout: the simulator names a line by a dense id (0, 1, 2,
   ...) that [Lines] hands out on the line address's first sight.
   Everything else is indexed by id: [holders] is the directory (a
   bitmask of the caches holding the line) and the caches key their
   slots by id.  A reference therefore does only array indexing and
   never allocates.

   Two paths share [read] and [write].  [prepare] interns a whole
   trace once, into one int per access with the line id in the
   address field; [run] sizes the directory and every cache's
   id->slot array from the trace's line count and checks the PE bound
   once, so its loop neither hashes, grows nor tests a PE.
   [reference], the online path [Rapwam.Memmodel] drives, interns,
   checks the PE and grows the arrays per reference.

   The LRU lives in this module, not a module of its own, so that its
   [find] and [touch] inline into [read] and [write] and [insert] is a
   direct call: the dev profile compiles every module with -opaque,
   which stops inlining (and direct calls) across modules. *)

let max_pes = 62 (* one [holders] bit per PE in a 63-bit int *)

(* ------------------------------------------------------------------ *)
(* The LRU *)

module Cache = struct
  (* One fully associative cache with perfect LRU replacement (the
     paper's cache model), O(1) per operation and allocation-free.

     Keys are small non-negative ints (the dense line ids).  A
     resident line occupies one slot of four parallel arrays: its key,
     its dirty flag and the prev/next links of an intrusive recency
     list.  Slot [capacity] is the list's sentinel: its next is the
     MRU slot, its prev the LRU one.  [slot_of] maps a key to its slot
     (or -1) and grows on demand; [free] is a stack of unused slots,
     which starts full and gets back the slots that invalidation
     empties. *)

  type t = {
    capacity : int; (* number of lines; also the sentinel slot *)
    key : int array;
    dirty : bool array;
    prev : int array;
    next : int array;
    free : int array;
    mutable n_free : int;
    mutable slot_of : int array;
    mutable evicted_dirty : bool; (* of the last line [insert] evicted *)
  }

  (* [keys]: the initial length of [slot_of] *)
  let make ~lines ~keys =
    if lines <= 0 then invalid_arg "Cache.create";
    {
      capacity = lines;
      key = Array.make (lines + 1) (-1);
      dirty = Array.make (lines + 1) false;
      prev = Array.make (lines + 1) lines;
      next = Array.make (lines + 1) lines;
      free = Array.init lines (fun i -> lines - 1 - i);
      n_free = lines;
      slot_of = Array.make keys (-1);
      evicted_dirty = false;
    }

  let create ~lines = make ~lines ~keys:(max 64 (2 * lines))

  let[@inline] unlink t s =
    let p = t.prev.(s) and n = t.next.(s) in
    t.next.(p) <- n;
    t.prev.(n) <- p

  let[@inline] push_front t s =
    let first = t.next.(t.capacity) in
    t.next.(s) <- first;
    t.prev.(s) <- t.capacity;
    t.prev.(first) <- s;
    t.next.(t.capacity) <- s

  let[@inline] find t key =
    if key < Array.length t.slot_of then t.slot_of.(key) else -1

  let[@inline] touch t s =
    if t.next.(t.capacity) <> s then begin
      unlink t s;
      push_front t s
    end

  let dirty t s = t.dirty.(s)
  let set_dirty t s d = t.dirty.(s) <- d
  let evicted_dirty t = t.evicted_dirty

  let grow t key =
    let old = t.slot_of in
    let a = Array.make (max (2 * Array.length old) (key + 1)) (-1) in
    Array.blit old 0 a 0 (Array.length old);
    t.slot_of <- a

  let insert t key ~dirty =
    if key >= Array.length t.slot_of then grow t key;
    assert (t.slot_of.(key) < 0);
    let victim =
      if t.n_free > 0 then -1
      else begin
        let lru = t.prev.(t.capacity) in
        let v = t.key.(lru) in
        unlink t lru;
        t.slot_of.(v) <- -1;
        t.evicted_dirty <- t.dirty.(lru);
        t.free.(0) <- lru;
        t.n_free <- 1;
        v
      end
    in
    t.n_free <- t.n_free - 1;
    let s = t.free.(t.n_free) in
    t.key.(s) <- key;
    t.dirty.(s) <- dirty;
    t.slot_of.(key) <- s;
    push_front t s;
    victim

  (* Drop a line (coherency invalidation); any dirty contents are lost
     to the protocol's accounting, not ours. *)
  let invalidate t key =
    let s = find t key in
    if s < 0 then false
    else begin
      unlink t s;
      t.slot_of.(key) <- -1;
      t.free.(t.n_free) <- s;
      t.n_free <- t.n_free + 1;
      true
    end

  let resident t key = find t key >= 0
  let occupancy t = t.capacity - t.n_free
end

(* ------------------------------------------------------------------ *)
(* Line interning *)

(* An open-addressing hash table of (line, id) pairs: linear probing,
   no deletion, doubled at load 1/2. *)
module Lines = struct
  type t = {
    mutable table : int array; (* slot i: line at 2i ([empty]), id at 2i+1 *)
    mutable shift : int; (* hash = (line * hash_mult) lsr shift *)
    mutable count : int; (* ids handed out *)
  }

  let initial_bits = 10
  let empty = min_int (* a free slot: no line address is min_int *)

  let create () =
    {
      table = Array.make (2 lsl initial_bits) empty;
      shift = Sys.int_size - initial_bits;
      count = 0;
    }

  (* Fibonacci hashing: the top bits of the product mix every bit of
     the line address, so the PE regions' far-apart addresses spread
     out. *)
  let hash_mult = 0x2545F4914F6CDD1D

  let rehash t =
    let old = t.table in
    let size = Array.length old in
    let table = Array.make (2 * size) empty in
    let mask = size - 1 in
    let shift = t.shift - 1 in
    for i = 0 to (size / 2) - 1 do
      let line = old.(2 * i) in
      if line <> empty then begin
        let j = ref ((line * hash_mult) lsr shift) in
        while table.(2 * !j) <> empty do
          j := (!j + 1) land mask
        done;
        table.(2 * !j) <- line;
        table.(2 * !j + 1) <- old.((2 * i) + 1)
      end
    done;
    t.table <- table;
    t.shift <- shift

  let add t i line =
    let id = t.count in
    t.table.(2 * i) <- line;
    t.table.((2 * i) + 1) <- id;
    t.count <- id + 1;
    if 4 * t.count > Array.length t.table then rehash t;
    id

  (* The dense id of a line address, handing out the next one on first
     sight.  A loop over local refs, not a recursive closure, so that a
     lookup allocates nothing. *)
  let intern t line =
    let table = t.table in
    let mask = (Array.length table / 2) - 1 in
    let i = ref ((line * hash_mult) lsr t.shift) in
    let id = ref (-2) in
    while !id = -2 do
      let k = table.(2 * !i) in
      if k = line then id := table.((2 * !i) + 1)
      else if k = empty then id := -1
      else i := (!i + 1) land mask
    done;
    if !id >= 0 then !id else add t !i line
end

(* ------------------------------------------------------------------ *)
(* Prepared traces *)

type prepared = {
  line_words : int;
  accesses : int array; (* packed records, the line id in the address field *)
  n_lines : int; (* ids 0 .. n_lines-1 *)
  max_pe : int; (* the largest PE of any access; -1 if none *)
  area_ops : int array; (* (area lsl 1) lor op -> accesses *)
}

let addr_shift = Trace.Ref_record.addr_bits_shift
let low_bits = (1 lsl addr_shift) - 1 (* PE, area and op *)

(* One pass: drop the sync words (they order accesses but move no
   data), intern each access's line and count the accesses per (area,
   op).  Sync tags sit at or above [sync_tag_base], so a word's low six
   bits (area and op) select an area count exactly when the word is an
   access. *)
let prepare ~line_words buf =
  let line_shift = addr_shift + Protocol.line_bits line_words in
  let module B = Trace.Sink.Buffer_sink in
  let access_tags = 2 * Trace.Ref_record.sync_tag_base in
  let accesses = Array.make (B.length buf - B.n_syncs buf) 0 in
  let area_ops = Array.make access_tags 0 in
  let lines = Lines.create () in
  let n = ref 0 and max_pe = ref (-1) in
  B.iter_packed
    (fun word ->
      let tag = word land 0x3f in
      if tag < access_tags then begin
        let id = Lines.intern lines (word lsr line_shift) in
        accesses.(!n) <- (id lsl addr_shift) lor (word land low_bits);
        incr n;
        let pe = (word lsr 6) land 0xff in
        if pe > !max_pe then max_pe := pe;
        area_ops.(tag) <- area_ops.(tag) + 1
      end)
    buf;
  {
    line_words;
    accesses;
    n_lines = lines.Lines.count;
    max_pe = !max_pe;
    area_ops;
  }

let accesses p = Array.length p.accesses

let access p i = Trace.Ref_record.unpack p.accesses.(i)

let area_counts p area =
  let i = Trace.Area.to_int area in
  (p.area_ops.(2 * i), p.area_ops.((2 * i) + 1))

(* ------------------------------------------------------------------ *)
(* Simulator state *)

type sim = {
  config : Protocol.config;
  line_bits : int; (* log2 of the line size *)
  n_pes : int;
  caches : Cache.t array;
  stats : Metrics.t;
  global_area : bool array; (* Area int -> locality = Global? *)
  mutable holders : int array; (* id -> bitmask of caches *)
}

(* [locality_override]: force every reference's hybrid tag to Global
   (Some true) or Local (Some false); used by the tag ablation.
   [keys]: the initial length of the directory and of every cache's
   id->slot array. *)
let make_sim ?locality_override ~n_pes ~keys (config : Protocol.config) =
  if n_pes < 1 || n_pes > max_pes then
    invalid_arg (Printf.sprintf "Multi.create: 1..%d PEs" max_pes);
  let lines = config.Protocol.cache_words / config.Protocol.line_words in
  let global_area =
    match locality_override with
    | Some v -> Array.make Trace.Area.count v
    | None ->
      Array.init Trace.Area.count (fun i ->
          Trace.Area.locality (Trace.Area.of_int i) = Trace.Area.Global)
  in
  {
    config;
    line_bits = Protocol.line_bits config.Protocol.line_words;
    n_pes;
    caches = Array.init n_pes (fun _ -> Cache.make ~lines ~keys);
    stats = Metrics.create ();
    global_area;
    holders = Array.make keys 0;
  }

(* ------------------------------------------------------------------ *)
(* Directory and bus *)

let line_words t = t.config.Protocol.line_words

let set_holder t id pe = t.holders.(id) <- t.holders.(id) lor (1 lsl pe)
let clear_holder t id pe = t.holders.(id) <- t.holders.(id) land lnot (1 lsl pe)
let others_hold t id pe = t.holders.(id) land lnot (1 lsl pe) <> 0

(* Write back a remotely-held dirty copy (flush before a fill). *)
let flush_remote_dirty t id pe =
  let m = t.holders.(id) in
  for other = 0 to t.n_pes - 1 do
    if other <> pe && m land (1 lsl other) <> 0 then begin
      let c = t.caches.(other) in
      let s = Cache.find c id in
      if s >= 0 && Cache.dirty c s then begin
        Cache.set_dirty c s false;
        t.stats.Metrics.writebacks <- t.stats.Metrics.writebacks + 1;
        t.stats.Metrics.bus_words <- t.stats.Metrics.bus_words + line_words t
      end
    end
  done

(* Fetch a line into [pe]'s cache; handles victim write-back and the
   directory. *)
let fill t pe id ~dirty ~coherent =
  if coherent then flush_remote_dirty t id pe;
  t.stats.Metrics.fills <- t.stats.Metrics.fills + 1;
  t.stats.Metrics.bus_words <- t.stats.Metrics.bus_words + line_words t;
  let c = t.caches.(pe) in
  let victim = Cache.insert c id ~dirty in
  if victim >= 0 then begin
    clear_holder t victim pe;
    if Cache.evicted_dirty c then begin
      t.stats.Metrics.writebacks <- t.stats.Metrics.writebacks + 1;
      t.stats.Metrics.bus_words <- t.stats.Metrics.bus_words + line_words t
    end
  end;
  set_holder t id pe

let invalidate_others t id pe ~count_word =
  if others_hold t id pe then begin
    if count_word then begin
      t.stats.Metrics.invalidations <- t.stats.Metrics.invalidations + 1;
      t.stats.Metrics.bus_words <- t.stats.Metrics.bus_words + 1
    end;
    let m = t.holders.(id) in
    for other = 0 to t.n_pes - 1 do
      if other <> pe && m land (1 lsl other) <> 0 then begin
        ignore (Cache.invalidate t.caches.(other) id);
        clear_holder t id other
      end
    done
  end

let write_through_word t =
  t.stats.Metrics.wt_words <- t.stats.Metrics.wt_words + 1;
  t.stats.Metrics.bus_words <- t.stats.Metrics.bus_words + 1

let update_word t =
  t.stats.Metrics.updates <- t.stats.Metrics.updates + 1;
  t.stats.Metrics.bus_words <- t.stats.Metrics.bus_words + 1

(* ------------------------------------------------------------------ *)
(* One reference; [pe] has a cache and [id] fits the directory. *)

let read t pe id =
  t.stats.Metrics.reads <- t.stats.Metrics.reads + 1;
  let c = t.caches.(pe) in
  let s = Cache.find c id in
  if s >= 0 then Cache.touch c s
  else begin
    t.stats.Metrics.read_misses <- t.stats.Metrics.read_misses + 1;
    let coherent = t.config.Protocol.kind <> Protocol.Copyback in
    fill t pe id ~dirty:false ~coherent
  end

(* The write path of every protocol; [s] is the writer's slot for the
   line, -1 on a miss. *)
let write t pe id ~global =
  t.stats.Metrics.writes <- t.stats.Metrics.writes + 1;
  let c = t.caches.(pe) in
  let cfg = t.config in
  let s = Cache.find c id in
  if s >= 0 then Cache.touch c s
  else t.stats.Metrics.write_misses <- t.stats.Metrics.write_misses + 1;
  match cfg.Protocol.kind with
  | Protocol.Copyback ->
    if s >= 0 then Cache.set_dirty c s true
    else if cfg.Protocol.write_allocate then fill t pe id ~dirty:true ~coherent:false
    else write_through_word t
  | Protocol.Write_through ->
    (* every write goes to memory; snooping invalidates remote copies *)
    write_through_word t;
    invalidate_others t id pe ~count_word:false;
    if s < 0 && cfg.Protocol.write_allocate then
      fill t pe id ~dirty:false ~coherent:true
  | Protocol.Write_in_broadcast ->
    if s >= 0 then begin
      if others_hold t id pe then invalidate_others t id pe ~count_word:true;
      Cache.set_dirty c s true
    end
    else if cfg.Protocol.write_allocate then begin
      (* read-with-intent-to-modify: the fill transaction also
         invalidates the other copies *)
      fill t pe id ~dirty:true ~coherent:true;
      invalidate_others t id pe ~count_word:false
    end
    else begin
      write_through_word t;
      invalidate_others t id pe ~count_word:false
    end
  | Protocol.Write_through_broadcast ->
    if s >= 0 then begin
      if others_hold t id pe then begin
        (* broadcast the word to the other holders and memory *)
        update_word t;
        Cache.set_dirty c s false
      end
      else Cache.set_dirty c s true
    end
    else if cfg.Protocol.write_allocate then begin
      fill t pe id ~dirty:false ~coherent:true;
      if others_hold t id pe then update_word t
      else Cache.set_dirty c (Cache.find c id) true
    end
    else update_word t (* one broadcast serves caches and memory *)
  | Protocol.Hybrid ->
    if global then begin
      (* potentially shared: write through; snooping keeps copies
         coherent at no extra bus cost *)
      write_through_word t;
      invalidate_others t id pe ~count_word:false;
      if s < 0 && cfg.Protocol.write_allocate then
        fill t pe id ~dirty:false ~coherent:true
    end
    else if s >= 0 then
      (* local: copy back *)
      Cache.set_dirty c s true
    else if cfg.Protocol.write_allocate then fill t pe id ~dirty:true ~coherent:true
    else write_through_word t

let check_pe t pe =
  if pe >= t.n_pes then
    invalid_arg
      (Printf.sprintf
         "Cachesim.Multi: reference by PE %d but only %d caches (was the \
          trace produced with more workers?)"
         pe t.n_pes)

(* ------------------------------------------------------------------ *)
(* The online path *)

type t = { sim : sim; lines : Lines.t }

let create ?locality_override ~n_pes config =
  {
    sim =
      make_sim ?locality_override ~n_pes ~keys:(1 lsl Lines.initial_bits)
        config;
    lines = Lines.create ();
  }

(* One packed word, its fields read with shifts; a sync word moves no
   data and is skipped, as [prepare] drops it. *)
let reference t word =
  let module R = Trace.Ref_record in
  let tag = (word lsr R.tag_shift) land R.tag_mask in
  if tag < R.sync_tag_base then begin
    let sim = t.sim in
    let pe = (word lsr R.pe_shift) land R.pe_mask in
    check_pe sim pe;
    let id = Lines.intern t.lines (word lsr (addr_shift + sim.line_bits)) in
    if id >= Array.length sim.holders then begin
      let h = Array.make (2 * Array.length sim.holders) 0 in
      Array.blit sim.holders 0 h 0 id;
      sim.holders <- h
    end;
    if word land R.write_bit <> 0 then
      write sim pe id ~global:sim.global_area.(tag)
    else read sim pe id
  end

let stats t = t.sim.stats

(* ------------------------------------------------------------------ *)
(* The prepared path: the only loop over a whole trace *)

let run ?locality_override ~n_pes config p =
  let t = make_sim ?locality_override ~n_pes ~keys:p.n_lines config in
  let accesses = p.accesses in
  (* name the first access that has no cache, as [reference] would *)
  if p.max_pe >= n_pes then
    Array.iter (fun word -> check_pe t ((word lsr 6) land 0xff)) accesses;
  for i = 0 to Array.length accesses - 1 do
    let word = accesses.(i) in
    let pe = (word lsr 6) land 0xff in
    let id = word lsr addr_shift in
    if word land 1 = 1 then
      write t pe id ~global:t.global_area.((word lsr 1) land 0x1f)
    else read t pe id
  done;
  t.stats

let config_of ?write_allocate ~line_words ~kind ~cache_words () =
  let write_allocate =
    match write_allocate with
    | Some w -> w
    | None -> Protocol.paper_allocate_policy ~kind ~cache_words
  in
  Protocol.make ~line_words ~write_allocate ~kind ~cache_words ()

let simulate_prepared ?write_allocate ~kind ~cache_words ~n_pes p =
  let config =
    config_of ?write_allocate ~line_words:p.line_words ~kind ~cache_words ()
  in
  run ~n_pes config p

(* Convenience: simulate one (protocol, size) point over a trace. *)
let simulate ?line_words:(lw = 4) ?write_allocate ?locality_override ~kind
    ~cache_words ~n_pes buf =
  let config = config_of ?write_allocate ~line_words:lw ~kind ~cache_words () in
  run ?locality_override ~n_pes config (prepare ~line_words:lw buf)

(* The paper selected, per cache size, the allocation policy that
   produced the lowest traffic; [simulate_best] does that selection
   per point. *)
let simulate_best_prepared ~kind ~cache_words ~n_pes p =
  let a = simulate_prepared ~write_allocate:true ~kind ~cache_words ~n_pes p in
  let b = simulate_prepared ~write_allocate:false ~kind ~cache_words ~n_pes p in
  if Metrics.traffic_ratio a <= Metrics.traffic_ratio b then (a, true)
  else (b, false)

let simulate_best ?line_words:(lw = 4) ~kind ~cache_words ~n_pes buf =
  simulate_best_prepared ~kind ~cache_words ~n_pes (prepare ~line_words:lw buf)
