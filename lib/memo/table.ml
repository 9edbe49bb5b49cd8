(* Sharded-lock concurrent answer table with LRU-ish eviction. *)

(* Entry bookkeeping is protected by the owning shard's mutex; the
   global counters and the LRU clock are atomics.  An answer's
   canonical text is printed the first time an insert compares with
   it, and kept, so the common insert (one answer into a fresh entry)
   prints nothing under the lock. *)
type stored = { answer : Canon.answer; mutable text : string option }

type entry = {
  key : Canon.key;
  mutable answers : stored list;  (* newest first *)
  mutable n_answers : int;
  mutable words : int;
  mutable stamp : int;
}

(* Buckets are keyed by the key's byte code. *)
type shard = {
  lock : Mutex.t;
  tbl : (string, entry) Hashtbl.t;
  mutable live_words : int;
}

type t = {
  shards_ : shard array;
  capacity : int;  (* total word budget; 0 = unbounded *)
  per_shard : int;
  clock : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  inserts : int Atomic.t;
  duplicates : int Atomic.t;
  evictions : int Atomic.t;
}

(* a struct/atom key costs a little beyond its terms *)
let entry_overhead = 8

let create ?(shards = 16) ~capacity_words () =
  let shards = max 1 shards in
  let capacity = max 0 capacity_words in
  {
    shards_ =
      Array.init shards (fun _ ->
          { lock = Mutex.create (); tbl = Hashtbl.create 64; live_words = 0 });
    capacity;
    per_shard = (if capacity = 0 then 0 else max 1 (capacity / shards));
    clock = Atomic.make 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    inserts = Atomic.make 0;
    duplicates = Atomic.make 0;
    evictions = Atomic.make 0;
  }

let shard_of t (key : Canon.key) =
  t.shards_.(Hashtbl.hash key.Canon.code mod Array.length t.shards_)

let with_lock sh f =
  Mutex.lock sh.lock;
  match f () with
  | v ->
    Mutex.unlock sh.lock;
    v
  | exception e ->
    Mutex.unlock sh.lock;
    raise e

let tick t = Atomic.fetch_and_add t.clock 1

let find t (key : Canon.key) =
  let sh = shard_of t key in
  let stamp = tick t in
  let found =
    with_lock sh (fun () ->
        match Hashtbl.find_opt sh.tbl key.Canon.code with
        | None -> None
        | Some e ->
          e.stamp <- stamp;
          Some (List.rev_map (fun s -> s.answer) e.answers))
  in
  (match found with
  | Some _ -> Atomic.incr t.hits
  | None -> Atomic.incr t.misses);
  found

let mem t (key : Canon.key) =
  let sh = shard_of t key in
  with_lock sh (fun () -> Hashtbl.mem sh.tbl key.Canon.code)

(* Evict least-recently-stamped entries (never the one just touched)
   until the shard fits its slice again.  Shards are small enough that
   a scan per eviction is cheap. *)
let evict_over_budget t sh ~keep =
  let evicted = ref 0 in
  let continue_ = ref true in
  while t.per_shard > 0 && sh.live_words > t.per_shard && !continue_ do
    let victim = ref None in
    Hashtbl.iter
      (fun k e ->
        if k <> keep then
          match !victim with
          | Some (_, best) when best.stamp <= e.stamp -> ()
          | _ -> victim := Some (k, e))
      sh.tbl;
    match !victim with
    | None -> continue_ := false
    | Some (k, e) ->
      Hashtbl.remove sh.tbl k;
      sh.live_words <- sh.live_words - e.words;
      incr evicted
  done;
  !evicted

let text_of s =
  match s.text with
  | Some text -> text
  | None ->
    let text = Canon.answer_text s.answer in
    s.text <- Some text;
    text

let insert t (key : Canon.key) (answers : Canon.answer list) =
  let sh = shard_of t key in
  let stamp = tick t in
  let added, dups, evicted =
    with_lock sh (fun () ->
        let e =
          match Hashtbl.find_opt sh.tbl key.Canon.code with
          | Some e -> e
          | None ->
            let words = entry_overhead + key.Canon.words in
            let e = { key; answers = []; n_answers = 0; words; stamp } in
            Hashtbl.add sh.tbl key.Canon.code e;
            sh.live_words <- sh.live_words + words;
            e
        in
        e.stamp <- stamp;
        let added = ref 0 and dups = ref 0 in
        List.iter
          (fun a ->
            (* an empty entry calls no comparison, so prints nothing *)
            let s = { answer = a; text = None } in
            if List.exists (fun held -> text_of held = text_of s) e.answers then
              incr dups
            else begin
              let words = Canon.answer_words a in
              e.answers <- s :: e.answers;
              e.n_answers <- e.n_answers + 1;
              e.words <- e.words + words;
              sh.live_words <- sh.live_words + words;
              incr added
            end)
          answers;
        let evicted = evict_over_budget t sh ~keep:key.Canon.code in
        (!added, !dups, evicted))
  in
  if added > 0 then ignore (Atomic.fetch_and_add t.inserts added);
  if dups > 0 then ignore (Atomic.fetch_and_add t.duplicates dups);
  if evicted > 0 then ignore (Atomic.fetch_and_add t.evictions evicted);
  added

(* Shard order (and hash order within a shard) is arbitrary: callers
   that need determinism sort the folded list themselves. *)
let fold t f init =
  Array.fold_left
    (fun acc sh ->
      with_lock sh (fun () ->
          Hashtbl.fold
            (fun _ e acc -> f e.key (List.rev_map (fun s -> s.answer) e.answers) acc)
            sh.tbl acc))
    init t.shards_

type totals = {
  hits : int;
  misses : int;
  inserts : int;
  duplicates : int;
  evictions : int;
  entries : int;
  words : int;
}

let totals t =
  let entries = ref 0 and words = ref 0 in
  Array.iter
    (fun sh ->
      with_lock sh (fun () ->
          entries := !entries + Hashtbl.length sh.tbl;
          words := !words + sh.live_words))
    t.shards_;
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    inserts = Atomic.get t.inserts;
    duplicates = Atomic.get t.duplicates;
    evictions = Atomic.get t.evictions;
    entries = !entries;
    words = !words;
  }

let hit_rate (s : totals) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
