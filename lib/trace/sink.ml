(* Trace sinks: consumers of memory-reference records.

   The abstract machine emits every reference to a sink.  [counting]
   keeps only aggregate statistics (cheap, used for work/overhead
   measurements); [buffer] retains the full packed trace for the cache
   simulators; [tee] feeds two sinks; [null] drops everything.

   Sinks also carry the machine's explicit synchronization events
   ([emit_sync]); sinks that only understand accesses ignore them. *)

type t = {
  emit : Ref_record.t -> unit;
  emit_sync : Ref_record.sync -> unit;
}

let emit t r = t.emit r
let emit_sync t s = t.emit_sync s

let null = { emit = (fun _ -> ()); emit_sync = (fun _ -> ()) }

let tee a b =
  {
    emit = (fun r -> a.emit r; b.emit r);
    emit_sync = (fun s -> a.emit_sync s; b.emit_sync s);
  }

let filter pred inner =
  {
    emit = (fun r -> if pred r then inner.emit r);
    emit_sync = inner.emit_sync;
  }

(* Drop instruction fetches: the paper's reference counts and cache
   traces are for data references. *)
let data_only inner =
  filter (fun r -> r.Ref_record.area <> Area.Code) inner

(* ------------------------------------------------------------------ *)

module Buffer_sink = struct
  type sink = t

  type t = {
    mutable data : int array;
    mutable len : int;
  }

  let create ?(capacity = 4096) () = { data = Array.make capacity 0; len = 0 }

  let length b = b.len

  let push b word =
    if b.len = Array.length b.data then begin
      let bigger = Array.make (2 * Array.length b.data) 0 in
      Array.blit b.data 0 bigger 0 b.len;
      b.data <- bigger
    end;
    b.data.(b.len) <- word;
    b.len <- b.len + 1

  let sink b : sink =
    {
      emit = (fun r -> push b (Ref_record.pack r));
      emit_sync = (fun s -> push b (Ref_record.pack_sync s));
    }

  let get b i =
    if i < 0 || i >= b.len then invalid_arg "Buffer_sink.get";
    Ref_record.unpack b.data.(i)

  (* [iter] visits the memory accesses only, skipping sync events --
     the pre-sync contract every aggregate consumer relies on. *)
  let iter f b =
    for i = 0 to b.len - 1 do
      let word = b.data.(i) in
      if not (Ref_record.is_sync_word word) then f (Ref_record.unpack word)
    done

  (* Iterate raw packed words (hot path for the cache simulator);
     includes sync words -- consumers test [Ref_record.is_sync_word]. *)
  let iter_packed f b =
    for i = 0 to b.len - 1 do
      f b.data.(i)
    done

  (* Iterate accesses and sync events, decoded and in emission order. *)
  let iter_entries f b =
    for i = 0 to b.len - 1 do
      f (Ref_record.unpack_entry b.data.(i))
    done

  let n_syncs b =
    let n = ref 0 in
    for i = 0 to b.len - 1 do
      if Ref_record.is_sync_word b.data.(i) then incr n
    done;
    !n
end

let buffer = Buffer_sink.sink
