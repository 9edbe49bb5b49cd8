(* Dynamic access collection from the tagged reference stream.

   Attribution mirrors Wam.Profile: a Code-area read (instruction
   fetch) selects the owning predicate as the PE's attribution target
   and every data reference is charged to it.  Two refinements keep
   the per-predicate sets honest against the static summaries:

     - message processing: a PE drains its message buffer between
       instructions, so from the first Message-area access until the
       next fetch everything the PE does (trail replay, binding
       resets, frame acks) is runtime machinery, not the stale
       predicate's work — it lands in the [runtime] bucket;
     - pre-fetch activity (query seeding, idle-PE stealing) has no
       current predicate and also lands in [runtime].

   The collector additionally tracks, per (address, area), which PEs
   touched the address under that area — the dynamic shareability
   ground truth the predicted tags are scored against.  Keying by the
   pair scores each tag on the accesses made under it: a local-stack
   word is reused (an environment's control words later hold a
   parcall frame), and only the parcall accesses make it shared. *)

type obs = { seen : int array (* bit 0 = read, bit 1 = write seen *) }

type t = {
  static : Static.t;
  by_fid : (int, obs) Hashtbl.t;
  runtime : obs;
  addrs : (int * int, int * bool) Hashtbl.t;
      (** (addr, area index) -> (first PE, touched by a second PE) *)
  mutable in_msg : bool array;  (** per PE: inside a message window *)
  mutable attrib : int option array;  (** per PE: current fid *)
  mutable records : int;
}

let create static =
  {
    static;
    by_fid = Hashtbl.create 64;
    runtime = { seen = Array.make Trace.Area.count 0 };
    addrs = Hashtbl.create 4096;
    in_msg = Array.make (Trace.Ref_record.max_pe + 1) false;
    attrib = Array.make (Trace.Ref_record.max_pe + 1) None;
    records = 0;
  }

let obs_for t fid =
  match Hashtbl.find_opt t.by_fid fid with
  | Some o -> o
  | None ->
    let o = { seen = Array.make Trace.Area.count 0 } in
    Hashtbl.replace t.by_fid fid o;
    o

let bit (op : Trace.Ref_record.op) =
  match op with Trace.Ref_record.Read -> 1 | Trace.Ref_record.Write -> 2

let on_record t (r : Trace.Ref_record.t) =
  t.records <- t.records + 1;
  let pe = r.Trace.Ref_record.pe in
  let key =
    (r.Trace.Ref_record.addr, Trace.Area.to_int r.Trace.Ref_record.area)
  in
  (match Hashtbl.find_opt t.addrs key with
  | None -> Hashtbl.replace t.addrs key (pe, false)
  | Some (first, shared) ->
    if (not shared) && first <> pe then
      Hashtbl.replace t.addrs key (first, true));
  if r.Trace.Ref_record.area = Trace.Area.Code then begin
    t.in_msg.(pe) <- false;
    t.attrib.(pe) <-
      Static.owner_fid t.static (r.Trace.Ref_record.addr - Wam.Layout.code_base)
  end
  else begin
    if r.Trace.Ref_record.area = Trace.Area.Message then t.in_msg.(pe) <- true;
    let o =
      if t.in_msg.(pe) then t.runtime
      else
        match t.attrib.(pe) with
        | Some fid -> obs_for t fid
        | None -> t.runtime
    in
    let k = Trace.Area.to_int r.Trace.Ref_record.area in
    o.seen.(k) <- o.seen.(k) lor bit r.Trace.Ref_record.op
  end

let of_buffer static buf =
  let t = create static in
  Trace.Sink.Buffer_sink.iter (on_record t) buf;
  t

let seen_read o area = o.seen.(Trace.Area.to_int area) land 1 <> 0
let seen_write o area = o.seen.(Trace.Area.to_int area) land 2 <> 0

(* (address, area) pairs dynamically shared: touched by two PEs, or
   touched by a PE other than the owner of the region the address lies
   in (a cross-PE binding is shared even if the owner never reads it
   back). *)
let dyn_shared addr (first, multi) =
  multi
  ||
  let owner = Wam.Layout.pe_of_addr addr in
  owner >= 0 && first <> owner

let fold_addrs f t acc =
  Hashtbl.fold
    (fun (addr, area) info acc ->
      f acc ~addr ~area:(Trace.Area.of_int area) ~shared:(dyn_shared addr info))
    t.addrs acc
