(* Dynamic access collection from the tagged reference stream.

   Wam.Profile attributes the stream: each data reference inside an
   instruction's window lands in the set of the predicate owning the
   instruction, and the runtime references (query seeding, idle-PE
   stealing, message handling) in the [runtime] bucket.

   The collector additionally tracks, per (address, area), which PEs
   touched the address under that area — the dynamic shareability
   ground truth the predicted tags are scored against.  Keying by the
   pair scores each tag on the accesses made under it: a local-stack
   word is reused (an environment's control words later hold a
   parcall frame), and only the parcall accesses make it shared. *)

type obs = { seen : int array (* bit 0 = read, bit 1 = write seen *) }

type t = {
  by_fid : (int, obs) Hashtbl.t;
  runtime : obs;
  addrs : (int * int, int * bool) Hashtbl.t;
      (** (addr, area index) -> (first PE, touched by a second PE) *)
  mutable records : int;
}

let create () =
  {
    by_fid = Hashtbl.create 64;
    runtime = { seen = Array.make Trace.Area.count 0 };
    addrs = Hashtbl.create 4096;
    records = 0;
  }

let obs_for t fid =
  match Hashtbl.find_opt t.by_fid fid with
  | Some o -> o
  | None ->
    let o = { seen = Array.make Trace.Area.count 0 } in
    Hashtbl.replace t.by_fid fid o;
    o

let note t (r : Trace.Ref_record.t) =
  t.records <- t.records + 1;
  let pe = r.Trace.Ref_record.pe in
  let key =
    (r.Trace.Ref_record.addr, Trace.Area.to_int r.Trace.Ref_record.area)
  in
  match Hashtbl.find_opt t.addrs key with
  | None -> Hashtbl.replace t.addrs key (pe, false)
  | Some (first, shared) ->
    if (not shared) && first <> pe then
      Hashtbl.replace t.addrs key (first, true)

let mark t o (r : Trace.Ref_record.t) =
  note t r;
  let k = Trace.Area.to_int r.Trace.Ref_record.area in
  let bit =
    match r.Trace.Ref_record.op with
    | Trace.Ref_record.Read -> 1
    | Trace.Ref_record.Write -> 2
  in
  o.seen.(k) <- o.seen.(k) lor bit

(* [prog]: the program whose run recorded [buf]. *)
let of_buffer (prog : Wam.Program.t) buf =
  let t = create () in
  Wam.Profile.replay
    (Wam.Profile.create prog.Wam.Program.symbols prog.Wam.Program.code)
    {
      Wam.Profile.fetch =
        (fun r c _ ->
          note t r;
          obs_for t c.Wam.Profile.fid);
      data = mark t;
      close = ignore;
      runtime =
        (fun r ->
          if r.Trace.Ref_record.area = Trace.Area.Code then note t r
          else mark t t.runtime r);
    }
    buf;
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
