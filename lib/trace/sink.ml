(* Trace sinks: consumers of packed reference words.

   The abstract machine emits every reference, and every explicit
   synchronization event, as one packed word ([Ref_record]'s layout)
   to a sink.  [buffer] retains the words for the cache simulators
   and counts them by slot as it goes; [tee] feeds two sinks; [null]
   drops everything; aggregate sinks ([Areastats]) read the fields
   they need with shifts.  Sync words share the packing, and
   consumers that only understand accesses skip them with
   [Ref_record.is_sync_word].

   A sink is a boxed record holding one closure, not an [@@unboxed]
   one: unboxed, [Buffer_sink.sink] and [tee] were functions of two
   arguments that the compiler uncurried, so every sink they built was
   a partial application and every word went through a [caml_curry]
   trampoline.  Boxed, each is a closure of one argument, called
   directly, for one more load per word. *)

type t = { emit_word : int -> unit }

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

  (* Words live in a directory of chunks: chunk [k] holds words
     [k * chunk_words ..].  Only chunk 0 grows by doubling, from the
     requested capacity up to [chunk_words], so a small trace stays
     small; every later chunk is allocated full-size and never copied.
     [limit] is the length at which the last chunk is full. *)
  let chunk_bits = 16
  let chunk_words = 1 lsl chunk_bits
  let chunk_mask = chunk_words - 1

  type t = {
    mutable dir : int array array;
    mutable n_chunks : int;
    mutable last : int array; (* dir.(n_chunks - 1) *)
    mutable len : int;
    mutable limit : int;
    counts : int array; (* retained words per slot (Ref_record.slots) *)
  }

  let create ?(capacity = 4096) () =
    let first = Array.make (min (max capacity 1) chunk_words) 0 in
    {
      dir = [| first |];
      n_chunks = 1;
      last = first;
      len = 0;
      limit = Array.length first;
      counts = Array.make Ref_record.slots 0;
    }

  let length b = b.len

  (* The last chunk is full: double chunk 0 while it is the only one
     and below full size, else open a new chunk (doubling the
     directory, an array of pointers, when it is full). *)
  let grow b =
    if b.n_chunks = 1 && b.len < chunk_words then begin
      let bigger = Array.make (min (2 * b.len) chunk_words) 0 in
      Array.blit b.last 0 bigger 0 b.len;
      b.dir.(0) <- bigger;
      b.last <- bigger
    end
    else begin
      if b.n_chunks = Array.length b.dir then begin
        let dir = Array.make (2 * b.n_chunks) [||] in
        Array.blit b.dir 0 dir 0 b.n_chunks;
        b.dir <- dir
      end;
      let chunk = Array.make chunk_words 0 in
      b.dir.(b.n_chunks) <- chunk;
      b.n_chunks <- b.n_chunks + 1;
      b.last <- chunk
    end;
    b.limit <- ((b.n_chunks - 1) lsl chunk_bits) + Array.length b.last

  (* Append a word and count it in its slot, its low six bits (always
     below [Ref_record.slots], so the count needs no bounds check). *)
  let push b word =
    let len = b.len in
    if len = b.limit then grow b;
    b.last.(len land chunk_mask) <- word;
    b.len <- len + 1;
    let slot = word land (Ref_record.slots - 1) in
    Array.unsafe_set b.counts slot (Array.unsafe_get b.counts slot + 1)

  let sink b : sink = { emit_word = (fun w -> push b w) }

  let counts b = Array.copy b.counts

  let get b i =
    if i < 0 || i >= b.len then invalid_arg "Buffer_sink.get";
    let word = b.dir.(i lsr chunk_bits).(i land chunk_mask) in
    if Ref_record.is_sync_word word then
      invalid_arg
        (Printf.sprintf "Buffer_sink.get: word %d is a sync event" i);
    Ref_record.unpack word

  (* Iterate raw packed words, chunk by chunk (hot path for the cache
     simulator); includes sync words -- consumers test
     [Ref_record.is_sync_word]. *)
  let iter_packed f b =
    for k = 0 to b.n_chunks - 1 do
      let chunk = b.dir.(k) in
      for i = 0 to min chunk_words (b.len - (k lsl chunk_bits)) - 1 do
        f chunk.(i)
      done
    done

  (* [iter] visits the memory accesses only, skipping sync events --
     the pre-sync contract every aggregate consumer relies on. *)
  let iter f b =
    iter_packed
      (fun word ->
        if not (Ref_record.is_sync_word word) then f (Ref_record.unpack word))
      b

  (* Iterate accesses and sync events, decoded and in emission order. *)
  let iter_entries f b =
    iter_packed (fun word -> f (Ref_record.unpack_entry word)) b

  (* Scans the words, not [counts]: a caller comparing the counts with
     the length less the syncs then checks one against the other. *)
  let n_syncs b =
    let n = ref 0 in
    iter_packed (fun word -> if Ref_record.is_sync_word word then incr n) b;
    !n
end

let buffer = Buffer_sink.sink
