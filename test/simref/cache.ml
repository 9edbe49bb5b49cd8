(* One fully associative cache with perfect LRU replacement (the
   paper's cache model), O(1) per operation: a hash table from line
   address to node plus an intrusive doubly-linked recency list. *)

type node = {
  mutable line : int;
  mutable dirty : bool;
  mutable prev : node;
  mutable next : node;
}

type t = {
  capacity : int; (* number of lines *)
  table : (int, node) Hashtbl.t;
  sentinel : node; (* sentinel.next = MRU, sentinel.prev = LRU *)
  mutable count : int;
}

let create ~lines =
  if lines <= 0 then invalid_arg "Cache.create";
  let rec sentinel =
    { line = min_int; dirty = false; prev = sentinel; next = sentinel }
  in
  { capacity = lines; table = Hashtbl.create (2 * lines); sentinel; count = 0 }

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let push_front t node =
  node.next <- t.sentinel.next;
  node.prev <- t.sentinel;
  t.sentinel.next.prev <- node;
  t.sentinel.next <- node

let find t line = Hashtbl.find_opt t.table line

(* Mark a resident line most-recently-used. *)
let touch t node =
  unlink node;
  push_front t node

(* Insert a line (must not be resident); returns the evicted
   (line, dirty) if the cache was full. *)
let insert t line ~dirty =
  assert (not (Hashtbl.mem t.table line));
  let evicted =
    if t.count >= t.capacity then begin
      let lru = t.sentinel.prev in
      unlink lru;
      Hashtbl.remove t.table lru.line;
      t.count <- t.count - 1;
      Some (lru.line, lru.dirty)
    end
    else None
  in
  let node = { line; dirty; prev = t.sentinel; next = t.sentinel } in
  Hashtbl.replace t.table line node;
  push_front t node;
  t.count <- t.count + 1;
  evicted

(* Drop a line (coherency invalidation); any dirty contents are lost
   to the protocol's accounting, not ours. *)
let invalidate t line =
  match Hashtbl.find_opt t.table line with
  | None -> false
  | Some node ->
    unlink node;
    Hashtbl.remove t.table line;
    t.count <- t.count - 1;
    true

let resident t line = Hashtbl.mem t.table line
let occupancy t = t.count

let iter f t =
  let rec go node =
    if node != t.sentinel then begin
      f node;
      go node.next
    end
  in
  go t.sentinel.next
