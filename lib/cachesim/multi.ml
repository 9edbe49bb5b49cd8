(* The multiprocessor coherent-cache simulation: one recency stack per
   PE, a shared bus, and a line directory (who holds what) used to
   decide sharing.  Processes packed RAP-WAM traces and produces traffic
   statistics per protocol (paper, §3.2), for one cache size or for
   several sizes in one pass.

   Bus accounting, in words:
     line fill                      L
     dirty-victim write-back       L
     remote-dirty flush on a miss  L
     write-through / update word   1
     explicit invalidation          1
   Invalidations that piggy-back on a memory write (write-through and
   hybrid global writes are observed by snooping) cost nothing extra.

   Data layout: the simulator names a line by a dense id (0, 1, 2,
   ...) that [Lines] hands out on the line address's first sight.
   Everything else is indexed by id: [holders] is the directory (a
   bitmask of the PEs whose stacks hold the line) and the stacks key
   their slots by id.  A reference therefore does only array indexing
   and never allocates.

   Every size in one pass.  Fully associative LRU has the inclusion
   property (Mattson et al., IBM Systems Journal 1970), and an
   invalidation removes a line at every size at once, so one recency
   list per PE serves the sizes c0 < c1 < ... < c(K-1) of a pass:

   - A line's level at a PE is the smallest size k that holds it there
     (K if none); it is stored with the line's slot in one word, so a
     hit at every size (level 0) reads one word.  A reference at level
     j hits at the sizes >= j and misses below.
   - At every size, recency order is the list's order restricted to
     the lines that size holds.  A read or an allocating write touches
     every size; a no-write-allocate write at level j touches the
     sizes >= j, and its line moves to the front keeping level j.
   - Size k's LRU line is its marker: the last line of the list whose
     level is <= k.  The largest size's LRU is the list's tail, so it
     needs no marker.  When a marker's line moves to the front, is
     evicted at that size or is removed, the marker steps towards the
     front to the next line with level <= k (past lines a
     no-write-allocate write put in front).
   - A fill goes through the sizes below j in ascending order; a full
     size evicts its LRU line, whose level rises by one (at the largest
     size it leaves the list), and the referenced line ends at the
     front at level 0.  A slot that an invalidation frees serves every
     size >= the line's level, so free slots never decrease with size:
     a full size has only full sizes below it, and inclusion holds.
   - Dirty state is a bitmask over sizes per resident line.  Other PEs
     hold a line at size k exactly when the smallest of their levels,
     m, is <= k; the write paths turn (j, m) into masks of the sizes
     that count a word.

   With K = 1 there are no markers, and the stack is a plain LRU.
   Reads and writes are counted once, in the first size's counters;
   the other eight counters are per size.

   Two paths share [read] and [write].  [prepare] interns a whole
   trace once, into one int per access with the line id in the
   address field; [pass] sizes the directory and every stack's
   id->slot array from the trace's line count and checks the PE bound
   once, so its loop neither hashes, grows nor tests a PE.
   [reference], the online path [Rapwam.Memmodel] drives, interns,
   checks the PE and grows the arrays per reference.

   The stack lives in this module, not a module of its own, so that
   [touch] inlines into [read] and [write] and [insert] is a direct
   call: the dev profile compiles every module with -opaque, which
   stops inlining (and direct calls) across modules. *)

let max_pes = 62 (* one [holders] bit per PE in a 63-bit int *)

(* One bit per size in a slot's dirty and marker words, and [1 lsl K]
   stays a valid mask bound. *)
let max_sizes = 62

(* An id->slot word: the slot above [level_bits], the level below. *)
let level_bits = 6
let level_mask = (1 lsl level_bits) - 1

(* ------------------------------------------------------------------ *)
(* The recency stack *)

module Stack = struct
  (* A resident line occupies one slot of parallel arrays: its key,
     its dirty and marker bitmasks over sizes, and the prev/next links
     of an intrusive recency list.  Slot [cap] (the largest size, in
     lines) is the list's sentinel: its next is the MRU slot, its prev
     the LRU one.  [free] is a stack of unused slots, which starts full
     and gets back the slots that the largest size evicts or an
     invalidation empties. *)

  type t = {
    n_sizes : int;
    lines : int array; (* size -> capacity in lines, ascending *)
    cap : int; (* lines at the largest size; the sentinel slot *)
    key : int array;
    dirty : int array; (* bit k: dirty at size k *)
    marks : int array; (* bit k: size k's marker *)
    prev : int array;
    next : int array;
    free : int array;
    mutable n_free : int; (* free slots at the largest size *)
    count : int array; (* size k < K-1 -> lines it holds *)
    marker : int array; (* size k < K-1 -> its LRU slot, -1 if empty *)
    mutable slot_of : int array; (* key -> (slot lsl 6) lor level, or -1 *)
    mutable evicted_dirty : int; (* of the last [insert]'s victims *)
  }

  (* [lines]: ascending, distinct, positive; [keys]: the length of
     [slot_of] *)
  let make ~lines ~keys =
    let n = Array.length lines in
    let cap = lines.(n - 1) in
    {
      n_sizes = n;
      lines;
      cap;
      key = Array.make (cap + 1) (-1);
      dirty = Array.make (cap + 1) 0;
      marks = Array.make (cap + 1) 0;
      prev = Array.make (cap + 1) cap;
      next = Array.make (cap + 1) cap;
      free = Array.init cap (fun i -> cap - 1 - i);
      n_free = cap;
      count = Array.make (n - 1) 0;
      marker = Array.make (n - 1) (-1);
      slot_of = Array.make keys (-1);
      evicted_dirty = 0;
    }

  let create ~lines ~keys =
    let rec ascending = function
      | a :: (b :: _ as rest) -> a < b && ascending rest
      | _ -> true
    in
    (match lines with
    | first :: _
      when first > 0 && ascending lines && List.length lines <= max_sizes ->
      ()
    | _ -> invalid_arg "Multi.Stack.create");
    make ~lines:(Array.of_list lines) ~keys

  let grow t keys =
    let a = Array.make keys (-1) in
    Array.blit t.slot_of 0 a 0 (Array.length t.slot_of);
    t.slot_of <- a

  let[@inline] unlink t s =
    let p = t.prev.(s) and n = t.next.(s) in
    t.next.(p) <- n;
    t.prev.(n) <- p

  let[@inline] push_front t s =
    let first = t.next.(t.cap) in
    t.next.(s) <- first;
    t.prev.(s) <- t.cap;
    t.prev.(first) <- s;
    t.next.(t.cap) <- s

  let[@inline] find t key = t.slot_of.(key)

  (* The level in an id->slot word; [n_sizes] if the line is absent. *)
  let[@inline] level_of_word t w = if w < 0 then t.n_sizes else w land level_mask

  let level t key = level_of_word t t.slot_of.(key)

  let[@inline] slot_level t s = t.slot_of.(t.key.(s)) land level_mask

  (* The nearest slot in front of [s] whose line size [k] holds, or
     the sentinel. *)
  let rec held_before t s k =
    let q = t.prev.(s) in
    if q = t.cap || slot_level t q <= k then q else held_before t q k

  (* [s], size [k]'s marker, leaves that size (evicted or removed): the
     marker steps to the next line in front that the size holds, or
     the size is empty. *)
  let pass_marker t s k =
    let bit = 1 lsl k in
    t.marks.(s) <- t.marks.(s) lxor bit;
    let q = held_before t s k in
    if q = t.cap then t.marker.(k) <- -1
    else begin
      t.marker.(k) <- q;
      t.marks.(q) <- t.marks.(q) lor bit
    end

  (* Slot [s], not the MRU, moves to the front.  At a size whose marker
     it is, the next line in front that the size holds becomes the
     marker; if there is none, [s] is that size's only line and stays
     its marker. *)
  let move_to_front t s =
    let m = t.marks.(s) in
    if m <> 0 then
      for k = 0 to t.n_sizes - 2 do
        let bit = 1 lsl k in
        if m land bit <> 0 then begin
          let q = held_before t s k in
          if q <> t.cap then begin
            t.marks.(s) <- t.marks.(s) lxor bit;
            t.marker.(k) <- q;
            t.marks.(q) <- t.marks.(q) lor bit
          end
        end
      done;
    unlink t s;
    push_front t s

  (* Make the line whose word [find] returned as [w] the MRU at every
     size that holds it; its level does not change. *)
  let[@inline] touch t w =
    let s = w lsr level_bits in
    if t.next.(t.cap) <> s then
      if t.n_sizes = 1 then begin
        unlink t s;
        push_front t s
      end
      else move_to_front t s

  (* Make [key] the MRU line at every size, at level 0.  Each size
     below its level, in ascending order, takes a free slot or, when
     full, evicts its LRU line: that line's level rises by one, and at
     the largest size it leaves the stack.  [dirty] sets the line's
     dirty bit at those sizes.  Returns the line that left, or -1;
     [evicted_dirty] is then the mask of the sizes whose victim was
     dirty. *)
  let insert t key ~dirty =
    let w = t.slot_of.(key) in
    let j = level_of_word t w in
    let last = t.n_sizes - 1 in
    let left = ref (-1) and evicted = ref 0 in
    for k = 0 to j - 1 do
      let bit = 1 lsl k in
      if k < last then begin
        if t.count.(k) < t.lines.(k) then t.count.(k) <- t.count.(k) + 1
        else begin
          let v = t.marker.(k) in
          if t.dirty.(v) land bit <> 0 then begin
            evicted := !evicted lor bit;
            t.dirty.(v) <- t.dirty.(v) lxor bit
          end;
          let id = t.key.(v) in
          t.slot_of.(id) <- t.slot_of.(id) + 1;
          pass_marker t v k
        end
      end
      else if t.n_free = 0 then begin
        let v = t.prev.(t.cap) in
        if t.dirty.(v) land bit <> 0 then evicted := !evicted lor bit;
        unlink t v;
        left := t.key.(v);
        t.slot_of.(!left) <- -1;
        t.free.(0) <- v;
        t.n_free <- 1
      end
    done;
    let s =
      if w < 0 then begin
        t.n_free <- t.n_free - 1;
        let s = t.free.(t.n_free) in
        t.key.(s) <- key;
        t.dirty.(s) <- 0;
        push_front t s;
        s
      end
      else begin
        let s = w lsr level_bits in
        if t.next.(t.cap) <> s then move_to_front t s;
        s
      end
    in
    if dirty then t.dirty.(s) <- t.dirty.(s) lor ((1 lsl j) - 1);
    t.slot_of.(key) <- s lsl level_bits;
    for k = 0 to (if j < last then j else last) - 1 do
      if t.marker.(k) < 0 then begin
        t.marker.(k) <- s;
        t.marks.(s) <- t.marks.(s) lor (1 lsl k)
      end
    done;
    t.evicted_dirty <- !evicted;
    !left

  let evicted_dirty t = t.evicted_dirty

  (* Drop a line at every size (coherency invalidation); any dirty
     contents are lost to the protocol's accounting, not ours. *)
  let invalidate t key =
    let w = t.slot_of.(key) in
    if w < 0 then false
    else begin
      let s = w lsr level_bits in
      if t.n_sizes > 1 then begin
        for k = w land level_mask to t.n_sizes - 2 do
          t.count.(k) <- t.count.(k) - 1
        done;
        let m = t.marks.(s) in
        if m <> 0 then
          for k = 0 to t.n_sizes - 2 do
            if m land (1 lsl k) <> 0 then pass_marker t s k
          done
      end;
      unlink t s;
      t.slot_of.(key) <- -1;
      t.free.(t.n_free) <- s;
      t.n_free <- t.n_free + 1;
      true
    end

  let occupancy t k =
    if k = t.n_sizes - 1 then t.cap - t.n_free else t.count.(k)
end

(* ------------------------------------------------------------------ *)
(* Line interning *)

(* An open-addressing hash table of (line, id) pairs: linear probing,
   no deletion, doubled at load 1/2. *)
module Lines = struct
  type t = {
    mutable table : int array; (* slot i: line at 2i ([empty]), id at 2i+1 *)
    mutable shift : int; (* hash = (line * hash_mult) lsr shift *)
    mutable count : int; (* ids handed out *)
  }

  let initial_bits = 10
  let empty = min_int (* a free slot: no line address is min_int *)

  let create () =
    {
      table = Array.make (2 lsl initial_bits) empty;
      shift = Sys.int_size - initial_bits;
      count = 0;
    }

  (* Fibonacci hashing: the top bits of the product mix every bit of
     the line address, so the PE regions' far-apart addresses spread
     out. *)
  let hash_mult = 0x2545F4914F6CDD1D

  let rehash t =
    let old = t.table in
    let size = Array.length old in
    let table = Array.make (2 * size) empty in
    let mask = size - 1 in
    let shift = t.shift - 1 in
    for i = 0 to (size / 2) - 1 do
      let line = old.(2 * i) in
      if line <> empty then begin
        let j = ref ((line * hash_mult) lsr shift) in
        while table.(2 * !j) <> empty do
          j := (!j + 1) land mask
        done;
        table.(2 * !j) <- line;
        table.(2 * !j + 1) <- old.((2 * i) + 1)
      end
    done;
    t.table <- table;
    t.shift <- shift

  let add t i line =
    let id = t.count in
    t.table.(2 * i) <- line;
    t.table.((2 * i) + 1) <- id;
    t.count <- id + 1;
    if 4 * t.count > Array.length t.table then rehash t;
    id

  (* The dense id of a line address, handing out the next one on first
     sight.  A loop over local refs, not a recursive closure, so that a
     lookup allocates nothing. *)
  let intern t line =
    let table = t.table in
    let mask = (Array.length table / 2) - 1 in
    let i = ref ((line * hash_mult) lsr t.shift) in
    let id = ref (-2) in
    while !id = -2 do
      let k = table.(2 * !i) in
      if k = line then id := table.((2 * !i) + 1)
      else if k = empty then id := -1
      else i := (!i + 1) land mask
    done;
    if !id >= 0 then !id else add t !i line
end

(* ------------------------------------------------------------------ *)
(* Prepared traces *)

type prepared = {
  line_words : int;
  accesses : int array; (* packed records, the line id in the address field *)
  n_lines : int; (* ids 0 .. n_lines-1 *)
  max_pe : int; (* the largest PE of any access; -1 if none *)
  area_ops : int array; (* (area lsl 1) lor op -> accesses *)
}

let addr_shift = Trace.Ref_record.addr_bits_shift
let low_bits = (1 lsl addr_shift) - 1 (* PE, area and op *)

(* One pass: drop the sync words (they order accesses but move no
   data), intern each access's line and count the accesses per (area,
   op).  Sync tags sit at or above [sync_tag_base], so a word's low six
   bits (area and op) select an area count exactly when the word is an
   access. *)
let prepare ~line_words buf =
  let line_shift = addr_shift + Protocol.line_bits line_words in
  let module B = Trace.Sink.Buffer_sink in
  let access_tags = 2 * Trace.Ref_record.sync_tag_base in
  let accesses = Array.make (B.length buf - B.n_syncs buf) 0 in
  let area_ops = Array.make access_tags 0 in
  let lines = Lines.create () in
  let n = ref 0 and max_pe = ref (-1) in
  B.iter_packed
    (fun word ->
      let tag = word land 0x3f in
      if tag < access_tags then begin
        let id = Lines.intern lines (word lsr line_shift) in
        accesses.(!n) <- (id lsl addr_shift) lor (word land low_bits);
        incr n;
        let pe = (word lsr 6) land 0xff in
        if pe > !max_pe then max_pe := pe;
        area_ops.(tag) <- area_ops.(tag) + 1
      end)
    buf;
  {
    line_words;
    accesses;
    n_lines = lines.Lines.count;
    max_pe = !max_pe;
    area_ops;
  }

let accesses p = Array.length p.accesses

let access p i = Trace.Ref_record.unpack p.accesses.(i)

let area_counts p area =
  let i = Trace.Area.to_int area in
  (p.area_ops.(2 * i), p.area_ops.((2 * i) + 1))

(* ------------------------------------------------------------------ *)
(* Simulator state *)

type sim = {
  kind : Protocol.kind;
  write_allocate : bool;
  line_words : int;
  line_bits : int; (* log2 of the line size *)
  n_pes : int;
  n_sizes : int;
  all : int; (* the mask of every size *)
  stacks : Stack.t array;
  stats : Metrics.t array; (* per size *)
  first : Metrics.t; (* stats.(0): also counts reads and writes *)
  global_area : bool array; (* Area int -> locality = Global? *)
  mutable holders : int array; (* id -> bitmask of stacks *)
}

(* [lines]: the sizes in lines, ascending and distinct.
   [locality_override]: force every reference's hybrid tag to Global
   (Some true) or Local (Some false); used by the tag ablation.
   [keys]: the initial length of the directory and of every stack's
   id->slot array. *)
let make_sim ?locality_override ~n_pes ~keys ~kind ~write_allocate ~line_words
    lines =
  if n_pes < 1 || n_pes > max_pes then
    invalid_arg (Printf.sprintf "Multi.create: 1..%d PEs" max_pes);
  let n_sizes = Array.length lines in
  let global_area =
    match locality_override with
    | Some v -> Array.make Trace.Area.count v
    | None ->
      Array.init Trace.Area.count (fun i ->
          Trace.Area.locality (Trace.Area.of_int i) = Trace.Area.Global)
  in
  let stats = Array.init n_sizes (fun _ -> Metrics.create ()) in
  {
    kind;
    write_allocate;
    line_words;
    line_bits = Protocol.line_bits line_words;
    n_pes;
    n_sizes;
    all = (1 lsl n_sizes) - 1;
    stacks = Array.init n_pes (fun _ -> Stack.make ~lines ~keys);
    stats;
    first = stats.(0);
    global_area;
    holders = Array.make keys 0;
  }

(* ------------------------------------------------------------------ *)
(* Directory and bus *)

let[@inline] set_holder t id pe = t.holders.(id) <- t.holders.(id) lor (1 lsl pe)
let[@inline] clear_holder t id pe = t.holders.(id) <- t.holders.(id) land lnot (1 lsl pe)

(* The smallest level of [id] at the PEs other than [pe]: they hold it
   at exactly the sizes at or above it.  [n_sizes] if none holds it. *)
let[@inline] others_level t id pe =
  let others = t.holders.(id) land lnot (1 lsl pe) in
  if others = 0 then t.n_sizes
  else if t.n_sizes = 1 then 0
  else begin
    let m = ref t.n_sizes in
    for other = 0 to t.n_pes - 1 do
      if others land (1 lsl other) <> 0 then begin
        let l = t.stacks.(other).Stack.slot_of.(id) land level_mask in
        if l < !m then m := l
      end
    done;
    !m
  end

(* One per-size counter, and its bus words, at every size in a mask. *)

let[@inline] writebacks t mask =
  for k = 0 to t.n_sizes - 1 do
    if mask land (1 lsl k) <> 0 then begin
      let m = t.stats.(k) in
      m.Metrics.writebacks <- m.Metrics.writebacks + 1;
      m.Metrics.bus_words <- m.Metrics.bus_words + t.line_words
    end
  done

let[@inline] write_through_words t mask =
  for k = 0 to t.n_sizes - 1 do
    if mask land (1 lsl k) <> 0 then begin
      let m = t.stats.(k) in
      m.Metrics.wt_words <- m.Metrics.wt_words + 1;
      m.Metrics.bus_words <- m.Metrics.bus_words + 1
    end
  done

let[@inline] update_words t mask =
  for k = 0 to t.n_sizes - 1 do
    if mask land (1 lsl k) <> 0 then begin
      let m = t.stats.(k) in
      m.Metrics.updates <- m.Metrics.updates + 1;
      m.Metrics.bus_words <- m.Metrics.bus_words + 1
    end
  done

let[@inline] invalidation_words t mask =
  for k = 0 to t.n_sizes - 1 do
    if mask land (1 lsl k) <> 0 then begin
      let m = t.stats.(k) in
      m.Metrics.invalidations <- m.Metrics.invalidations + 1;
      m.Metrics.bus_words <- m.Metrics.bus_words + 1
    end
  done

(* Write back the remotely held dirty copies (flush before a fill) at
   the sizes below [j]. *)
let[@inline] flush_remote_dirty t id pe j =
  let others = t.holders.(id) land lnot (1 lsl pe) in
  if others <> 0 then begin
    let below = (1 lsl j) - 1 in
    for other = 0 to t.n_pes - 1 do
      if others land (1 lsl other) <> 0 then begin
        let st = t.stacks.(other) in
        let s = st.Stack.slot_of.(id) lsr level_bits in
        let d = st.Stack.dirty.(s) land below in
        if d <> 0 then begin
          st.Stack.dirty.(s) <- st.Stack.dirty.(s) lxor d;
          writebacks t d
        end
      end
    done
  end

(* Fetch a line into [pe]'s stack at the sizes below its level [j];
   handles victim write-backs and the directory. *)
let fill t pe id j ~dirty ~coherent =
  if coherent then flush_remote_dirty t id pe j;
  for k = 0 to j - 1 do
    let m = t.stats.(k) in
    m.Metrics.fills <- m.Metrics.fills + 1;
    m.Metrics.bus_words <- m.Metrics.bus_words + t.line_words
  done;
  let st = t.stacks.(pe) in
  let left = Stack.insert st id ~dirty in
  if left >= 0 then clear_holder t left pe;
  if st.Stack.evicted_dirty <> 0 then writebacks t st.Stack.evicted_dirty;
  set_holder t id pe

(* Remove [id] from every other PE's stack, at every size. *)
let[@inline] invalidate_others t id pe =
  let others = t.holders.(id) land lnot (1 lsl pe) in
  if others <> 0 then begin
    for other = 0 to t.n_pes - 1 do
      if others land (1 lsl other) <> 0 then
        ignore (Stack.invalidate t.stacks.(other) id)
    done;
    t.holders.(id) <- t.holders.(id) lxor others
  end

(* ------------------------------------------------------------------ *)
(* One reference; [pe] has a stack and [id] fits the directory. *)

let read t pe id =
  t.first.Metrics.reads <- t.first.Metrics.reads + 1;
  let st = t.stacks.(pe) in
  let w = st.Stack.slot_of.(id) in
  if w land level_mask = 0 then Stack.touch st w
  else begin
    let j = Stack.level_of_word st w in
    for k = 0 to j - 1 do
      let m = t.stats.(k) in
      m.Metrics.read_misses <- m.Metrics.read_misses + 1
    done;
    fill t pe id j ~dirty:false ~coherent:(t.kind <> Protocol.Copyback)
  end

let[@inline] set_dirty st w mask =
  let s = w lsr level_bits in
  st.Stack.dirty.(s) <- st.Stack.dirty.(s) lor mask

(* A copy-back write at level [j] ([w] the writer's word for the line):
   dirty at the sizes that hold the line; below [j], fetch it
   (write-allocate) or write the word through. *)
let[@inline] copy_back t pe id w j ~coherent =
  let below = (1 lsl j) - 1 in
  if j < t.n_sizes then set_dirty t.stacks.(pe) w (t.all lxor below);
  if j > 0 then
    if t.write_allocate then fill t pe id j ~dirty:true ~coherent
    else write_through_words t below

(* Every write goes to memory; snooping invalidates remote copies. *)
let[@inline] write_through t pe id j =
  write_through_words t t.all;
  invalidate_others t id pe;
  if j > 0 && t.write_allocate then fill t pe id j ~dirty:false ~coherent:true

(* The write path of every protocol.  A size at or above the writer's
   level [j] hits, one below it misses; other PEs hold the line at the
   sizes at or above [others_level]. *)
let write t pe id ~global =
  t.first.Metrics.writes <- t.first.Metrics.writes + 1;
  let st = t.stacks.(pe) in
  let w = st.Stack.slot_of.(id) in
  let j = Stack.level_of_word st w in
  if j < t.n_sizes then Stack.touch st w;
  for k = 0 to j - 1 do
    let m = t.stats.(k) in
    m.Metrics.write_misses <- m.Metrics.write_misses + 1
  done;
  match t.kind with
  | Protocol.Copyback -> copy_back t pe id w j ~coherent:false
  | Protocol.Write_through -> write_through t pe id j
  | Protocol.Write_in_broadcast ->
    (* a hit on a line others hold broadcasts one invalidation word;
       a miss's fill (read-with-intent-to-modify) or word through
       invalidates the other copies by itself *)
    let m = others_level t id pe in
    let shared = m < t.n_sizes in
    if shared then
      invalidation_words t (t.all land lnot ((1 lsl if j > m then j else m) - 1));
    copy_back t pe id w j ~coherent:true;
    if shared then invalidate_others t id pe
  | Protocol.Write_through_broadcast ->
    (* a write to a line others hold broadcasts the word to them and
       memory, leaving it clean; a private line is copied back *)
    let m = others_level t id pe in
    let shared = t.all land lnot ((1 lsl m) - 1) in
    if j > 0 && t.write_allocate then begin
      fill t pe id j ~dirty:false ~coherent:true;
      update_words t shared;
      let s = st.Stack.slot_of.(id) lsr level_bits in
      st.Stack.dirty.(s) <- (1 lsl m) - 1
    end
    else begin
      let below = (1 lsl j) - 1 in
      let hits = t.all lxor below in
      update_words t ((hits land shared) lor below);
      if hits <> 0 then begin
        let s = w lsr level_bits in
        st.Stack.dirty.(s) <-
          st.Stack.dirty.(s) land lnot (hits land shared)
          lor (hits land lnot shared)
      end
    end
  | Protocol.Hybrid ->
    (* potentially shared data writes through, snooping keeps the
       copies coherent at no extra bus cost; local data copies back *)
    if global then write_through t pe id j
    else copy_back t pe id w j ~coherent:true

let check_pe t pe =
  if pe >= t.n_pes then
    invalid_arg
      (Printf.sprintf
         "Cachesim.Multi: reference by PE %d but only %d caches (was the \
          trace produced with more workers?)"
         pe t.n_pes)

(* ------------------------------------------------------------------ *)
(* The online path: one size *)

type t = { sim : sim; lines : Lines.t }

let create ?locality_override ~n_pes (config : Protocol.config) =
  {
    sim =
      make_sim ?locality_override ~n_pes ~keys:(1 lsl Lines.initial_bits)
        ~kind:config.Protocol.kind ~write_allocate:config.Protocol.write_allocate
        ~line_words:config.Protocol.line_words
        [| config.Protocol.cache_words / config.Protocol.line_words |];
    lines = Lines.create ();
  }

(* One packed word, its fields read with shifts; a sync word moves no
   data and is skipped, as [prepare] drops it. *)
let reference t word =
  let module R = Trace.Ref_record in
  let tag = (word lsr R.tag_shift) land R.tag_mask in
  if tag < R.sync_tag_base then begin
    let sim = t.sim in
    let pe = (word lsr R.pe_shift) land R.pe_mask in
    check_pe sim pe;
    let id = Lines.intern t.lines (word lsr (addr_shift + sim.line_bits)) in
    if id >= Array.length sim.holders then begin
      let keys = 2 * Array.length sim.holders in
      let h = Array.make keys 0 in
      Array.blit sim.holders 0 h 0 id;
      sim.holders <- h;
      Array.iter (fun st -> Stack.grow st keys) sim.stacks
    end;
    if word land R.write_bit <> 0 then
      write sim pe id ~global:sim.global_area.(tag)
    else read sim pe id
  end

let stats t = t.sim.first

(* ------------------------------------------------------------------ *)
(* The prepared path: the only loop over a whole trace *)

(* One pass over a prepared trace at the sizes [lines] (ascending,
   distinct, in lines); one [Metrics.t] per size. *)
let pass ?locality_override ~kind ~write_allocate ~n_pes lines (p : prepared) =
  let t =
    make_sim ?locality_override ~n_pes ~keys:p.n_lines ~kind ~write_allocate
      ~line_words:p.line_words lines
  in
  let accesses = p.accesses in
  (* name the first access that has no cache, as [reference] would *)
  if p.max_pe >= n_pes then
    Array.iter (fun word -> check_pe t ((word lsr 6) land 0xff)) accesses;
  for i = 0 to Array.length accesses - 1 do
    let word = accesses.(i) in
    let pe = (word lsr 6) land 0xff in
    let id = word lsr addr_shift in
    if word land 1 = 1 then
      write t pe id ~global:t.global_area.((word lsr 1) land 0x1f)
    else read t pe id
  done;
  Array.iter
    (fun (m : Metrics.t) ->
      m.Metrics.reads <- t.first.Metrics.reads;
      m.Metrics.writes <- t.first.Metrics.writes)
    t.stats;
  t.stats

(* A cache size in lines, refused as [Protocol.make] refuses it. *)
let lines_of ~line_words ~kind cache_words =
  (Protocol.make ~line_words ~kind ~cache_words ()).Protocol.cache_words
  / line_words

let simulate_sizes ?locality_override ~write_allocate ~kind ~cache_words ~n_pes
    (p : prepared) =
  let sizes = List.sort_uniq compare cache_words in
  if sizes = [] || List.length sizes > max_sizes then
    invalid_arg
      (Printf.sprintf "Multi.simulate_sizes: %d sizes; a pass takes 1..%d"
         (List.length sizes) max_sizes);
  let lines =
    Array.of_list (List.map (lines_of ~line_words:p.line_words ~kind) sizes)
  in
  let stats =
    List.combine sizes
      (Array.to_list (pass ?locality_override ~kind ~write_allocate ~n_pes lines p))
  in
  List.map
    (fun c ->
      let m = List.assoc c stats in
      { m with Metrics.reads = m.Metrics.reads })
    cache_words

(* One (protocol, size) point: a pass over one size. *)
let point ?write_allocate ?locality_override ~kind ~cache_words ~n_pes
    (p : prepared) =
  let write_allocate =
    match write_allocate with
    | Some w -> w
    | None -> Protocol.paper_allocate_policy ~kind ~cache_words
  in
  (pass ?locality_override ~kind ~write_allocate ~n_pes
     [| lines_of ~line_words:p.line_words ~kind cache_words |]
     p).(0)

let simulate_prepared ?write_allocate ~kind ~cache_words ~n_pes p =
  point ?write_allocate ~kind ~cache_words ~n_pes p

(* Convenience: simulate one (protocol, size) point over a trace. *)
let simulate ?line_words:(lw = 4) ?write_allocate ?locality_override ~kind
    ~cache_words ~n_pes buf =
  point ?write_allocate ?locality_override ~kind ~cache_words ~n_pes
    (prepare ~line_words:lw buf)

(* The paper selected, per cache size, the allocation policy that
   produced the lowest traffic; [simulate_best] does that selection
   per point. *)
let simulate_best_prepared ~kind ~cache_words ~n_pes p =
  let a = simulate_prepared ~write_allocate:true ~kind ~cache_words ~n_pes p in
  let b = simulate_prepared ~write_allocate:false ~kind ~cache_words ~n_pes p in
  if Metrics.traffic_ratio a <= Metrics.traffic_ratio b then (a, true)
  else (b, false)

let simulate_best ?line_words:(lw = 4) ~kind ~cache_words ~n_pes buf =
  simulate_best_prepared ~kind ~cache_words ~n_pes (prepare ~line_words:lw buf)
