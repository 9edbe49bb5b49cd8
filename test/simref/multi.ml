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
   hybrid global writes are observed by snooping) cost nothing extra. *)

type t = {
  config : Protocol.config;
  n_pes : int;
  caches : Cache.t array;
  holders : (int, int) Hashtbl.t; (* line -> bitmask of caches *)
  stats : Metrics.t;
  global_area : bool array; (* Area int -> locality = Global? *)
}

(* [locality_override]: force every reference's hybrid tag to Global
   (Some true) or Local (Some false); used by the tag ablation. *)
let create ?locality_override ~n_pes (config : Protocol.config) =
  if n_pes < 1 || n_pes > 62 then invalid_arg "Multi.create: 1..62 PEs";
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
    holders = Hashtbl.create 4096;
    stats = Metrics.create ();
    global_area;
  }

let holder_mask t line =
  match Hashtbl.find_opt t.holders line with Some m -> m | None -> 0

let set_holder t line pe =
  Hashtbl.replace t.holders line (holder_mask t line lor (1 lsl pe))

let clear_holder t line pe =
  let m = holder_mask t line land lnot (1 lsl pe) in
  if m = 0 then Hashtbl.remove t.holders line
  else Hashtbl.replace t.holders line m

let others_hold t line pe = holder_mask t line land lnot (1 lsl pe) <> 0

let line_words t = t.config.Protocol.line_words

(* Write back a remotely-held dirty copy (flush before a fill). *)
let flush_remote_dirty t line pe =
  let m = holder_mask t line in
  for other = 0 to t.n_pes - 1 do
    if other <> pe && m land (1 lsl other) <> 0 then begin
      match Cache.find t.caches.(other) line with
      | Some node when node.Cache.dirty ->
        node.Cache.dirty <- false;
        t.stats.Metrics.writebacks <- t.stats.Metrics.writebacks + 1;
        t.stats.Metrics.bus_words <- t.stats.Metrics.bus_words + line_words t
      | Some _ | None -> ()
    end
  done

(* Fetch a line into [pe]'s cache; handles victim write-back and the
   directory. *)
let fill t pe line ~dirty ~coherent =
  if coherent then flush_remote_dirty t line pe;
  t.stats.Metrics.fills <- t.stats.Metrics.fills + 1;
  t.stats.Metrics.bus_words <- t.stats.Metrics.bus_words + line_words t;
  (match Cache.insert t.caches.(pe) line ~dirty with
  | Some (victim, victim_dirty) ->
    clear_holder t victim pe;
    if victim_dirty then begin
      t.stats.Metrics.writebacks <- t.stats.Metrics.writebacks + 1;
      t.stats.Metrics.bus_words <- t.stats.Metrics.bus_words + line_words t
    end
  | None -> ());
  set_holder t line pe

let invalidate_others t line pe ~count_word =
  if others_hold t line pe then begin
    if count_word then begin
      t.stats.Metrics.invalidations <- t.stats.Metrics.invalidations + 1;
      t.stats.Metrics.bus_words <- t.stats.Metrics.bus_words + 1
    end;
    let m = holder_mask t line in
    for other = 0 to t.n_pes - 1 do
      if other <> pe && m land (1 lsl other) <> 0 then begin
        ignore (Cache.invalidate t.caches.(other) line);
        clear_holder t line other
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

let read t pe line =
  check_pe t pe;
  t.stats.Metrics.reads <- t.stats.Metrics.reads + 1;
  let c = t.caches.(pe) in
  match Cache.find c line with
  | Some node -> Cache.touch c node
  | None ->
    t.stats.Metrics.read_misses <- t.stats.Metrics.read_misses + 1;
    let coherent = t.config.Protocol.kind <> Protocol.Copyback in
    fill t pe line ~dirty:false ~coherent

let write t pe line ~global =
  check_pe t pe;
  t.stats.Metrics.writes <- t.stats.Metrics.writes + 1;
  let c = t.caches.(pe) in
  let cfg = t.config in
  let hit = Cache.find c line in
  (match hit with
  | Some node -> Cache.touch c node
  | None -> t.stats.Metrics.write_misses <- t.stats.Metrics.write_misses + 1);
  match cfg.Protocol.kind with
  | Protocol.Copyback -> begin
    match hit with
    | Some node -> node.Cache.dirty <- true
    | None ->
      if cfg.Protocol.write_allocate then fill t pe line ~dirty:true ~coherent:false
      else write_through_word t
  end
  | Protocol.Write_through -> begin
    (* every write goes to memory; snooping invalidates remote copies *)
    write_through_word t;
    invalidate_others t line pe ~count_word:false;
    match hit with
    | Some _ -> ()
    | None ->
      if cfg.Protocol.write_allocate then fill t pe line ~dirty:false ~coherent:true
  end
  | Protocol.Write_in_broadcast -> begin
    match hit with
    | Some node ->
      if others_hold t line pe then
        invalidate_others t line pe ~count_word:true;
      node.Cache.dirty <- true
    | None ->
      if cfg.Protocol.write_allocate then begin
        (* read-with-intent-to-modify: the fill transaction also
           invalidates the other copies *)
        fill t pe line ~dirty:true ~coherent:true;
        invalidate_others t line pe ~count_word:false
      end
      else begin
        write_through_word t;
        invalidate_others t line pe ~count_word:false
      end
  end
  | Protocol.Write_through_broadcast -> begin
    match hit with
    | Some node ->
      if others_hold t line pe then begin
        (* broadcast the word to the other holders and memory *)
        update_word t;
        node.Cache.dirty <- false
      end
      else node.Cache.dirty <- true
    | None ->
      if cfg.Protocol.write_allocate then begin
        fill t pe line ~dirty:false ~coherent:true;
        if others_hold t line pe then update_word t
        else begin
          match Cache.find c line with
          | Some node -> node.Cache.dirty <- true
          | None -> assert false
        end
      end
      else update_word t (* one broadcast serves caches and memory *)
  end
  | Protocol.Hybrid ->
    if global then begin
      (* potentially shared: write through; snooping keeps copies
         coherent at no extra bus cost *)
      write_through_word t;
      invalidate_others t line pe ~count_word:false;
      if hit = None && cfg.Protocol.write_allocate then
        fill t pe line ~dirty:false ~coherent:true
    end
    else begin
      (* local: copy back *)
      match hit with
      | Some node -> node.Cache.dirty <- true
      | None ->
        if cfg.Protocol.write_allocate then fill t pe line ~dirty:true ~coherent:true
        else write_through_word t
    end

(* ------------------------------------------------------------------ *)

let reference t (r : Trace.Ref_record.t) =
  let line = r.Trace.Ref_record.addr / line_words t in
  match r.Trace.Ref_record.op with
  | Trace.Ref_record.Read -> read t r.Trace.Ref_record.pe line
  | Trace.Ref_record.Write ->
    write t r.Trace.Ref_record.pe line
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
        let line = addr / lw in
        if is_write then write t pe line ~global:t.global_area.(area_i)
        else read t pe line
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
let simulate_best ?line_words ?locality_override ~kind ~cache_words ~n_pes
    buf =
  let a =
    simulate ?line_words ?locality_override ~write_allocate:true ~kind
      ~cache_words ~n_pes buf
  in
  let b =
    simulate ?line_words ?locality_override ~write_allocate:false ~kind
      ~cache_words ~n_pes buf
  in
  if Metrics.traffic_ratio a <= Metrics.traffic_ratio b then (a, true)
  else (b, false)
