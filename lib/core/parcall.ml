(* Parcall frames.

   A parcall frame coordinates one CGE instance: it is pushed on the
   parent's local stack by alloc_parcall and holds the goal counters
   (decremented under lock as goals check in), the failure status, the
   recovery state for backward execution, and per-slot bookkeeping.

   Layout (base PF, k = number of parallel goals):
     PF+0   k                 Parcall_local
     PF+1   lock              Parcall_count
     PF+2   counter           Parcall_count   goals not yet checked in
     PF+3   status            Parcall_count   0 = ok, 1 = some goal failed
     PF+4   acks              Parcall_count   unwind acknowledgements
     PF+5   parent PE         Parcall_global
     PF+6   prev PF           Parcall_local
     PF+7   saved B           Parcall_local
     PF+8   saved TR          Parcall_local
     PF+9   saved H           Parcall_local
     PF+10  saved CST         Parcall_local
     PF+11  join address      Parcall_local   (inline-goal failure target)
     PF+12  saved barrier     Parcall_local
     PF+13  saved HB          Parcall_local
     PF+14  saved PROT        Parcall_local
     PF+15..15+k-1    executor word per slot               Parcall_global
                      (-1 pending; pe while running; pe+done_bit when
                      checked in)

   [k] counts only the PUSHED goals: the parent executes the CGE's
   first goal inline (the thesis scheme), so a k-ary CGE pushes k-1
   goal frames and waits on a counter of k-1.  The frame also acts as
   a backtrack barrier: alloc sets the worker's barrier to the current
   B so an inline-goal failure surfaces as No_more_choices and is
   redirected to the join address. *)

open Wam

let off_k = 0
let off_lock = 1
let off_counter = 2
let off_status = 3
let off_acks = 4
let off_parent = 5
let off_prev_pf = 6
let off_saved_b = 7
let off_saved_tr = 8
let off_saved_h = 9
let off_saved_cst = 10
let off_join = 11
let off_saved_barrier = 12
let off_saved_hb = 13
let off_saved_prot = 14
let off_slots = 15

let done_bit = 4096

let size k = off_slots + k

let local_area = Trace.Area.Parcall_local
let count_area = Trace.Area.Parcall_count
let global_area = Trace.Area.Parcall_global

let rd m (w : Machine.worker) ~area addr = Memory.read m.Machine.mem ~pe:w.id ~area addr
let wr m (w : Machine.worker) ~area addr v = Memory.write m.Machine.mem ~pe:w.id ~area addr v
let sync m (w : Machine.worker) ~kind addr =
  Memory.sync m.Machine.mem ~pe:w.id ~kind addr

(* Allocate a frame on [w]'s local stack and make it current; the
   frame becomes the worker's backtrack barrier until the join. *)
let alloc m (w : Machine.worker) k ~join_addr =
  let base = max w.lst w.prot_lst in
  if base + size k > Layout.local_limit w.id then
    Machine.runtime_error "local stack overflow (parcall, PE %d)" w.id;
  let wl off v = wr m w ~area:local_area (base + off) (Cell.raw v) in
  let wc off v = wr m w ~area:count_area (base + off) (Cell.raw v) in
  let wg off v = wr m w ~area:global_area (base + off) (Cell.raw v) in
  wl off_k k;
  wc off_lock 0;
  wc off_counter k;
  wc off_status 0;
  wc off_acks 0;
  wg off_parent w.id;
  wl off_prev_pf w.pf;
  wl off_saved_b w.b;
  wl off_saved_tr w.tr;
  wl off_saved_h w.h;
  wl off_saved_cst w.cst;
  wl off_join join_addr;
  wl off_saved_barrier w.barrier;
  wl off_saved_hb w.hb;
  wl off_saved_prot w.prot_lst;
  for i = 0 to k - 1 do
    wg (off_slots + i) (-1)
  done;
  (* the frame is now fully initialized and about to become visible to
     other PEs through pushed goal frames *)
  sync m w ~kind:Trace.Ref_record.Publish base;
  w.pf <- base;
  w.barrier <- w.b;
  w.lst <- base + size k;
  (* the frame is a recovery point: bindings to anything older must be
     trailed so the failure protocol can undo them.  The par_* floors
     keep choice-point pops inside the CGE from restoring the trail
     condition below the frame (exec clamps against them). *)
  w.prot_lst <- w.lst;
  w.hb <- w.h;
  w.par_prot <- w.lst;
  w.par_hb <- w.h;
  Machine.note_high_water w;
  m.Machine.parcalls <- m.Machine.parcalls + 1;
  base

(* Field reads; [peek_*] versions are untraced and used only for the
   spin-wait polls that the paper does not count as work. *)
let k m w pf = Cell.payload (rd m w ~area:local_area (pf + off_k))
let counter m w pf = Cell.payload (rd m w ~area:count_area (pf + off_counter))
let status m w pf = Cell.payload (rd m w ~area:count_area (pf + off_status))
let parent m w pf = Cell.payload (rd m w ~area:global_area (pf + off_parent))
let prev_pf m w pf = Cell.payload (rd m w ~area:local_area (pf + off_prev_pf))
let saved_b m w pf = Cell.payload (rd m w ~area:local_area (pf + off_saved_b))
let saved_tr m w pf = Cell.payload (rd m w ~area:local_area (pf + off_saved_tr))
let saved_h m w pf = Cell.payload (rd m w ~area:local_area (pf + off_saved_h))
let saved_cst m w pf = Cell.payload (rd m w ~area:local_area (pf + off_saved_cst))
let join_addr m w pf = Cell.payload (rd m w ~area:local_area (pf + off_join))
let saved_barrier m w pf =
  Cell.payload (rd m w ~area:local_area (pf + off_saved_barrier))
let saved_hb m w pf = Cell.payload (rd m w ~area:local_area (pf + off_saved_hb))
let saved_prot m w pf =
  Cell.payload (rd m w ~area:local_area (pf + off_saved_prot))

let peek m pf off = Cell.payload (Memory.peek m.Machine.mem (pf + off))
let peek_counter m pf = peek m pf off_counter
let peek_status m pf = peek m pf off_status
let peek_acks m pf = peek m pf off_acks
let peek_k m pf = peek m pf off_k

let slot_exec m w pf i =
  Cell.payload (rd m w ~area:global_area (pf + off_slots + i))

let set_slot_exec m w pf i pe =
  wr m w ~area:global_area (pf + off_slots + i) (Cell.raw pe)

(* Mark a slot's executor word as checked in (read-modify-write). *)
let set_slot_done m w pf i =
  let v = Cell.payload (rd m w ~area:global_area (pf + off_slots + i)) in
  let v' = if v >= 0 && v < done_bit then v + done_bit else v in
  wr m w ~area:global_area (pf + off_slots + i) (Cell.raw v')

(* Decode an executor word: (pe, started, done). *)
let decode_slot v =
  if v < 0 then (-1, false, false)
  else if v >= done_bit then (v - done_bit, true, true)
  else (v, true, false)

(* Locked read-modify-write: the lock acquire/release traffic is
   modeled as one read and two writes on the lock word.  The explicit
   Acquire/Release events bracket the critical section so the trace
   checker can order cross-PE counter updates. *)
let locked_update m w pf ~off f =
  sync m w ~kind:Trace.Ref_record.Acquire (pf + off_lock);
  ignore (rd m w ~area:count_area (pf + off_lock)); (* acquire: test *)
  wr m w ~area:count_area (pf + off_lock) (Cell.raw 1); (* acquire: set *)
  let v = Cell.payload (rd m w ~area:count_area (pf + off)) in
  let v' = f v in
  wr m w ~area:count_area (pf + off) (Cell.raw v');
  wr m w ~area:count_area (pf + off_lock) (Cell.raw 0); (* release *)
  sync m w ~kind:Trace.Ref_record.Release (pf + off_lock);
  v'

(* A goal checks in: decrement the counter (optionally raising the
   failure status first). *)
let check_in m w pf ~failed ~slot =
  if failed then ignore (locked_update m w pf ~off:off_status (fun _ -> 1));
  set_slot_done m w pf slot;
  locked_update m w pf ~off:off_counter (fun c -> c - 1)

let ack m w pf = ignore (locked_update m w pf ~off:off_acks (fun a -> a + 1))
