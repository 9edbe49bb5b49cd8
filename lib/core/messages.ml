(* Message buffers.

   Backward execution across PEs is driven by messages: when a parcall
   fails, the parent asks the PEs that executed sibling goals to unwind
   their sections (selective trail replay) and acknowledge.  Each PE
   has a message region with a lock word and head/tail pointers;
   messages are fixed three-word records: kind, parcall frame, slot.
   Unwind (kind word 1) is the only kind.

   Region layout: word 0 = lock, 1 = head, 2 = tail, queue from 3.     *)

open Wam

let area = Trace.Area.Message
let msg_words = 3
let unwind_kind = 1

type t = { pf : int; slot : int }

let lock_word pe = Layout.msg_base pe
let head_word pe = Layout.msg_base pe + 1
let tail_word pe = Layout.msg_base pe + 2
let queue_base pe = Layout.msg_base pe + 3

let rd m (w : Machine.worker) addr = Memory.read m.Machine.mem ~pe:w.id ~area addr
let wr m (w : Machine.worker) addr v = Memory.write m.Machine.mem ~pe:w.id ~area addr v

(* Workers mirror the queue pointers OCaml-side; memory words carry the
   traffic.  Pointers are per-target, tracked in this table. *)
type queues = { mutable heads : int array; mutable tails : int array }

let create_queues n =
  { heads = Array.make n 0; tails = Array.make n 0 }

let with_lock m w ~target f =
  Memory.sync m.Machine.mem ~pe:w.Machine.id
    ~kind:Trace.Ref_record.Acquire (lock_word target);
  ignore (rd m w (lock_word target));
  wr m w (lock_word target) (Cell.raw 1);
  let v = f () in
  wr m w (lock_word target) (Cell.raw 0);
  Memory.sync m.Machine.mem ~pe:w.Machine.id
    ~kind:Trace.Ref_record.Release (lock_word target);
  v

(* [send m q w ~target msg]: [w] appends a message to [target]'s buffer. *)
let send m q (w : Machine.worker) ~target msg =
  with_lock m w ~target (fun () ->
      let tail = q.tails.(target) in
      let base = queue_base target + (tail * msg_words) in
      if base + msg_words > Layout.msg_limit target then
        Machine.runtime_error "message buffer overflow (PE %d)" target;
      wr m w base (Cell.raw unwind_kind);
      wr m w (base + 1) (Cell.raw msg.pf);
      wr m w (base + 2) (Cell.raw msg.slot);
      q.tails.(target) <- tail + 1;
      wr m w (tail_word target) (Cell.raw (tail + 1)))

(* Untraced poll: does [w] have pending messages? *)
let pending q (w : Machine.worker) = q.heads.(w.id) < q.tails.(w.id)

(* Receive the next message (traced reads; called only when pending). *)
let receive m q (w : Machine.worker) =
  with_lock m w ~target:w.id (fun () ->
      let head = q.heads.(w.id) in
      let base = queue_base w.id + (head * msg_words) in
      let kind = Cell.payload (rd m w base) in
      if kind <> unwind_kind then
        Machine.runtime_error "bad message kind %d" kind;
      let pf = Cell.payload (rd m w (base + 1)) in
      let slot = Cell.payload (rd m w (base + 2)) in
      q.heads.(w.id) <- head + 1;
      wr m w (head_word w.id) (Cell.raw (head + 1));
      if q.heads.(w.id) = q.tails.(w.id) then begin
        (* queue drained: reset so the region is reused *)
        q.heads.(w.id) <- 0;
        q.tails.(w.id) <- 0;
        wr m w (head_word w.id) (Cell.raw 0);
        wr m w (tail_word w.id) (Cell.raw 0)
      end;
      { pf; slot })
