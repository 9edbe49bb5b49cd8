(* One fully associative cache with perfect LRU replacement (the
   paper's cache model), O(1) per operation and allocation-free.

   Keys are small non-negative ints ([Multi]'s dense line ids).  A
   resident line occupies one slot of four parallel arrays: its key,
   its dirty flag and the prev/next links of an intrusive recency
   list.  Slot [capacity] is the list's sentinel: its next is the MRU
   slot, its prev the LRU one.  [slot_of] maps a key to its slot (or
   -1) and grows on demand; [free] is a stack of unused slots, which
   starts full and gets back the slots that invalidation empties. *)

type t = {
  capacity : int; (* number of lines; also the sentinel slot *)
  key : int array;
  dirty : bool array;
  prev : int array;
  next : int array;
  free : int array;
  mutable n_free : int;
  mutable slot_of : int array;
  mutable evicted_dirty : bool; (* of the last line [insert] evicted *)
}

let create ~lines =
  if lines <= 0 then invalid_arg "Cache.create";
  {
    capacity = lines;
    key = Array.make (lines + 1) (-1);
    dirty = Array.make (lines + 1) false;
    prev = Array.make (lines + 1) lines;
    next = Array.make (lines + 1) lines;
    free = Array.init lines (fun i -> lines - 1 - i);
    n_free = lines;
    slot_of = Array.make (max 64 (2 * lines)) (-1);
    evicted_dirty = false;
  }

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  t.next.(p) <- n;
  t.prev.(n) <- p

let push_front t s =
  let first = t.next.(t.capacity) in
  t.next.(s) <- first;
  t.prev.(s) <- t.capacity;
  t.prev.(first) <- s;
  t.next.(t.capacity) <- s

let find t key = if key < Array.length t.slot_of then t.slot_of.(key) else -1

let touch t s =
  if t.next.(t.capacity) <> s then begin
    unlink t s;
    push_front t s
  end

let dirty t s = t.dirty.(s)
let set_dirty t s d = t.dirty.(s) <- d
let evicted_dirty t = t.evicted_dirty

let grow t key =
  let old = t.slot_of in
  let a = Array.make (max (2 * Array.length old) (key + 1)) (-1) in
  Array.blit old 0 a 0 (Array.length old);
  t.slot_of <- a

let insert t key ~dirty =
  if key >= Array.length t.slot_of then grow t key;
  assert (t.slot_of.(key) < 0);
  let victim =
    if t.n_free > 0 then -1
    else begin
      let lru = t.prev.(t.capacity) in
      let v = t.key.(lru) in
      unlink t lru;
      t.slot_of.(v) <- -1;
      t.evicted_dirty <- t.dirty.(lru);
      t.free.(0) <- lru;
      t.n_free <- 1;
      v
    end
  in
  t.n_free <- t.n_free - 1;
  let s = t.free.(t.n_free) in
  t.key.(s) <- key;
  t.dirty.(s) <- dirty;
  t.slot_of.(key) <- s;
  push_front t s;
  victim

(* Drop a line (coherency invalidation); any dirty contents are lost
   to the protocol's accounting, not ours. *)
let invalidate t key =
  let s = find t key in
  if s < 0 then false
  else begin
    unlink t s;
    t.slot_of.(key) <- -1;
    t.free.(t.n_free) <- s;
    t.n_free <- t.n_free + 1;
    true
  end

let resident t key = find t key >= 0
let occupancy t = t.capacity - t.n_free
