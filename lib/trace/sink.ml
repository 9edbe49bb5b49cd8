(* Trace sinks: consumers of packed reference words.

   The abstract machine emits every reference, and every explicit
   synchronization event, as one packed word ([Ref_record]'s layout)
   to a sink.  [buffer] retains the words for the cache simulators;
   [tee] feeds two sinks; [null] drops everything; aggregate sinks
   ([Areastats]) read the fields they need with shifts.  Sync words
   share the packing, and consumers that only understand accesses
   skip them with [Ref_record.is_sync_word]. *)

type t = { emit_word : int -> unit } [@@unboxed]

let emit t r = t.emit_word (Ref_record.pack r)
let emit_sync t s = t.emit_word (Ref_record.pack_sync s)

let null = { emit_word = ignore }

let tee a b =
  let a = a.emit_word and b = b.emit_word in
  { emit_word = (fun w -> a w; b w) }

(* Drop instruction fetches: the paper's reference counts and cache
   traces are for data references.  A sync word's tag is never
   Code's, so sync words pass. *)
let data_only inner =
  let inner = inner.emit_word in
  let code = Area.to_int Area.Code in
  {
    emit_word =
      (fun w ->
        if (w lsr Ref_record.tag_shift) land Ref_record.tag_mask <> code then
          inner w);
  }

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

  let sink b : sink = { emit_word = (fun w -> push b w) }

  let get b i =
    if i < 0 || i >= b.len then invalid_arg "Buffer_sink.get";
    let word = b.data.(i) in
    if Ref_record.is_sync_word word then
      invalid_arg
        (Printf.sprintf "Buffer_sink.get: word %d is a sync event" i);
    Ref_record.unpack word

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
