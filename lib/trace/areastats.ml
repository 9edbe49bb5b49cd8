(* Aggregate per-area reference statistics.

   Tracks read/write counts by area and the local/remote split (a
   reference is remote when the address lies in another PE's stack-set
   region; the region size is supplied by the memory layout). *)

type t = {
  reads : int array; (* indexed by Area.to_int *)
  writes : int array;
  mutable local : int;
  mutable remote : int;
  mutable total : int;
  mutable syncs : int; (* sync events seen; not counted as references *)
  pe_of_addr : int -> int;
}

let create ~pe_of_addr () =
  {
    reads = Array.make Area.count 0;
    writes = Array.make Area.count 0;
    local = 0;
    remote = 0;
    total = 0;
    syncs = 0;
    pe_of_addr;
  }

let record t (r : Ref_record.t) =
  let i = Area.to_int r.area in
  (match r.op with
  | Ref_record.Read -> t.reads.(i) <- t.reads.(i) + 1
  | Ref_record.Write -> t.writes.(i) <- t.writes.(i) + 1);
  (* Code is a shared region owned by no PE; count it as local (it is
     read-only and always cacheable without coherency cost). *)
  (match r.area with
  | Area.Code -> t.local <- t.local + 1
  | Area.Env_control | Area.Env_pvar | Area.Choice_point | Area.Heap
  | Area.Trail | Area.Pdl | Area.Parcall_local | Area.Parcall_global
  | Area.Parcall_count | Area.Marker | Area.Goal_frame | Area.Message ->
    if t.pe_of_addr r.addr = r.pe then t.local <- t.local + 1
    else t.remote <- t.remote + 1);
  t.total <- t.total + 1

let sink t : Sink.t =
  {
    Sink.emit = (fun r -> record t r);
    emit_sync = (fun _ -> t.syncs <- t.syncs + 1);
  }

let syncs t = t.syncs
let reads t area = t.reads.(Area.to_int area)
let writes t area = t.writes.(Area.to_int area)
let refs t area = reads t area + writes t area
let total t = t.total
let local t = t.local
let remote t = t.remote

let total_reads t = Array.fold_left ( + ) 0 t.reads
let total_writes t = Array.fold_left ( + ) 0 t.writes

(* Data references exclude instruction fetches. *)
let data_refs t = t.total - refs t Area.Code

let pp fmt t =
  Format.fprintf fmt "@[<v>%-18s %10s %10s@," "area" "reads" "writes";
  List.iter
    (fun a ->
      let r = reads t a and w = writes t a in
      if r + w > 0 then
        Format.fprintf fmt "%-18s %10d %10d@," (Area.name a) r w)
    Area.all;
  Format.fprintf fmt "%-18s %10d %10d@]" "TOTAL" (total_reads t)
    (total_writes t)
