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

   Data layout: the first reference to a line address interns it as a
   dense id (0, 1, 2, ...) in [table], an open-addressing hash table
   of (line, id) pairs with linear probing and no deletion.  Everything
   else is indexed by id: [holders] is the directory (a bitmask of the
   caches holding the line) and the caches key their slots by id.  A
   reference therefore does only array indexing and never allocates;
   the arrays grow, by doubling, only when a new line appears. *)

let max_pes = 62 (* one [holders] bit per PE in a 63-bit int *)

type t = {
  config : Protocol.config;
  n_pes : int;
  caches : Cache.t array;
  stats : Metrics.t;
  global_area : bool array; (* Area int -> locality = Global? *)
  mutable table : int array; (* slot i: line at 2i ([empty]), id at 2i+1 *)
  mutable shift : int; (* hash = (line * hash_mult) lsr shift *)
  mutable n_lines : int; (* ids handed out *)
  mutable holders : int array; (* id -> bitmask of caches *)
}

let initial_bits = 10
let empty = min_int (* a free slot: no line address is min_int *)

(* [locality_override]: force every reference's hybrid tag to Global
   (Some true) or Local (Some false); used by the tag ablation. *)
let create ?locality_override ~n_pes (config : Protocol.config) =
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
    n_pes;
    caches = Array.init n_pes (fun _ -> Cache.create ~lines);
    stats = Metrics.create ();
    global_area;
    table = Array.make (2 lsl initial_bits) empty;
    shift = Sys.int_size - initial_bits;
    n_lines = 0;
    holders = Array.make (1 lsl initial_bits) 0;
  }

(* ------------------------------------------------------------------ *)
(* Line interning *)

(* Fibonacci hashing: the top bits of the product mix every bit of the
   line address, so the PE regions' far-apart addresses spread out. *)
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

let add_line t i line =
  let id = t.n_lines in
  t.table.(2 * i) <- line;
  t.table.((2 * i) + 1) <- id;
  t.n_lines <- id + 1;
  if t.n_lines > Array.length t.holders then begin
    let h = Array.make (2 * Array.length t.holders) 0 in
    Array.blit t.holders 0 h 0 id;
    t.holders <- h
  end;
  (* keep the load factor at most 1/2 *)
  if 4 * t.n_lines > Array.length t.table then rehash t;
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
  if !id >= 0 then !id else add_line t !i line

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

let check_pe t pe =
  if pe >= t.n_pes then
    invalid_arg
      (Printf.sprintf
         "Cachesim.Multi: reference by PE %d but only %d caches (was the \
          trace produced with more workers?)"
         pe t.n_pes)

let read t pe id =
  check_pe t pe;
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
  check_pe t pe;
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

(* ------------------------------------------------------------------ *)

let reference t (r : Trace.Ref_record.t) =
  let id = intern t (r.Trace.Ref_record.addr / line_words t) in
  match r.Trace.Ref_record.op with
  | Trace.Ref_record.Read -> read t r.Trace.Ref_record.pe id
  | Trace.Ref_record.Write ->
    write t r.Trace.Ref_record.pe id
      ~global:(t.global_area.(Trace.Area.to_int r.Trace.Ref_record.area))

(* Hot path: run a whole packed trace buffer.  Sync events cost no
   memory traffic (they annotate ordering, not accesses): skip them. *)
let run_trace t buf =
  let lw = line_words t in
  Trace.Sink.Buffer_sink.iter_packed
    (fun word ->
      let area_i = (word lsr 1) land 0x1f in
      if area_i < Trace.Ref_record.sync_tag_base then begin
        let is_write = word land 1 = 1 in
        let pe = (word lsr 6) land 0xff in
        let addr = word lsr Trace.Ref_record.addr_bits_shift in
        let id = intern t (addr / lw) in
        if is_write then write t pe id ~global:t.global_area.(area_i)
        else read t pe id
      end)
    buf

let stats t = t.stats

(* Convenience: simulate one (protocol, size) point over a trace. *)
let simulate ?line_words:(lw = 4) ?write_allocate ?locality_override ~kind
    ~cache_words ~n_pes buf =
  let write_allocate =
    match write_allocate with
    | Some w -> w
    | None -> Protocol.paper_allocate_policy ~kind ~cache_words
  in
  let config =
    Protocol.make ~line_words:lw ~write_allocate ~kind ~cache_words ()
  in
  let t = create ?locality_override ~n_pes config in
  run_trace t buf;
  stats t

(* The paper selected, per cache size, the allocation policy that
   produced the lowest traffic; [simulate_best] does that selection
   per point. *)
let simulate_best ?line_words ~kind ~cache_words ~n_pes buf =
  let a =
    simulate ?line_words ~write_allocate:true ~kind ~cache_words ~n_pes buf
  in
  let b =
    simulate ?line_words ~write_allocate:false ~kind ~cache_words ~n_pes buf
  in
  if Metrics.traffic_ratio a <= Metrics.traffic_ratio b then (a, true)
  else (b, false)
