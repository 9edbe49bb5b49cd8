(* Goal stacks and goal frames.

   Each worker owns a goal stack used for on-demand scheduling: the
   pusher adds frames at the top and pops its own work from the top;
   idle PEs steal from the bottom (oldest goal first, the coarsest
   granularity).  The stack is guarded by a single lock word; the top
   and bottom pointers live in memory so that remote PEs generate real
   traffic probing and updating them.  A push adds one to the
   machine's [published_goals] and a pop or steal takes one away, so
   an idle PE sees without a scan whether any stack holds a frame.

   Region layout: word 0 = lock, word 1 = top pointer, word 2 = bottom
   pointer, frames from word 3.

   Frame layout (base G, n = arity):
     G+0      total size (n+6)
     G+1      parcall frame address
     G+2      slot index
     G+3      code entry point
     G+4      arity
     G+5..5+n-1  argument cells
     G+5+n    total size again (trailer, for popping from the top)    *)

open Wam

let area = Trace.Area.Goal_frame

let frame_size arity = arity + 6

let lock_word pe = Layout.goal_base pe
let top_word pe = Layout.goal_base pe + 1
let bot_word pe = Layout.goal_base pe + 2
let frames_base pe = Layout.goal_base pe + 3

let rd m (w : Machine.worker) addr = Memory.read m.Machine.mem ~pe:w.id ~area addr
let wr m (w : Machine.worker) addr v = Memory.write m.Machine.mem ~pe:w.id ~area addr v
let sync m (w : Machine.worker) ~kind addr =
  Memory.sync m.Machine.mem ~pe:w.id ~kind addr

(* Lock traffic model: one read + one write to acquire, one write to
   release, charged to the accessing PE.  Acquire/Release events
   bracket the section for the happens-before checker. *)
let with_lock m w ~owner f =
  sync m w ~kind:Trace.Ref_record.Acquire (lock_word owner);
  ignore (rd m w (lock_word owner));
  wr m w (lock_word owner) (Cell.raw 1);
  let v = f () in
  wr m w (lock_word owner) (Cell.raw 0);
  sync m w ~kind:Trace.Ref_record.Release (lock_word owner);
  v

type goal = {
  pf : int;
  slot : int;
  entry : int;
  arity : int;
  args : int array;
  pusher : int; (* PE that pushed the frame *)
}

(* Push a goal whose arguments sit in the pusher's A1..An. *)
let push m (w : Machine.worker) ~pf ~slot ~entry ~arity =
  let size = frame_size arity in
  if w.gs_top + size > Layout.goal_limit w.id then
    Machine.runtime_error "goal stack overflow (PE %d)" w.id;
  with_lock m w ~owner:w.id (fun () ->
      let base = w.gs_top in
      wr m w base (Cell.raw size);
      wr m w (base + 1) (Cell.raw pf);
      wr m w (base + 2) (Cell.raw slot);
      wr m w (base + 3) (Cell.raw entry);
      wr m w (base + 4) (Cell.raw arity);
      for i = 0 to arity - 1 do
        wr m w (base + 5 + i) w.x.(i + 1)
      done;
      wr m w (base + 5 + arity) (Cell.raw size);
      w.gs_top <- base + size;
      m.Machine.published_goals <- m.Machine.published_goals + 1;
      wr m w (top_word w.id) (Cell.raw w.gs_top);
      (* the frame (and the parcall frame it references) is now
         visible to stealing PEs *)
      sync m w ~kind:Trace.Ref_record.Publish base);
  Machine.note_high_water w;
  m.Machine.goals_pushed <- m.Machine.goals_pushed + 1

let read_frame m (w : Machine.worker) ~owner base =
  let pf = Cell.payload (rd m w (base + 1)) in
  let slot = Cell.payload (rd m w (base + 2)) in
  let entry = Cell.payload (rd m w (base + 3)) in
  let arity = Cell.payload (rd m w (base + 4)) in
  let args = Array.init arity (fun i -> rd m w (base + 5 + i)) in
  { pf; slot; entry; arity; args; pusher = owner }

(* After consuming frames, reclaim the region once it drains. *)
let normalize m (w : Machine.worker) (victim : Machine.worker) =
  if victim.gs_top = victim.gs_bot then begin
    victim.gs_top <- frames_base victim.id;
    victim.gs_bot <- frames_base victim.id;
    wr m w (top_word victim.id) (Cell.raw victim.gs_top);
    wr m w (bot_word victim.id) (Cell.raw victim.gs_bot)
  end

(* Pop the newest frame from [victim]'s stack, charging traffic to the
   accessing worker [w] (the two coincide for an own pop). *)
let pop_top m (w : Machine.worker) (victim : Machine.worker) =
  if victim.gs_top = victim.gs_bot then None
  else
    Some
      (with_lock m w ~owner:victim.id (fun () ->
           let size = Cell.payload (rd m w (victim.gs_top - 1)) in
           let base = victim.gs_top - size in
           if w.id <> victim.id then
             sync m w ~kind:Trace.Ref_record.Steal base;
           let goal = read_frame m w ~owner:victim.id base in
           victim.gs_top <- base;
           m.Machine.published_goals <- m.Machine.published_goals - 1;
           wr m w (top_word victim.id) (Cell.raw victim.gs_top);
           normalize m w victim;
           goal))

(* Pop the newest frame from the worker's own stack. *)
let pop_own m (w : Machine.worker) = pop_top m w w

(* Steal the newest frame instead of the oldest (ablation policy). *)
let pop_newest m (w : Machine.worker) (victim : Machine.worker) =
  pop_top m w victim

(* Steal the oldest frame from [victim]'s stack, charging the traffic
   to the thief [w]. *)
let steal m (w : Machine.worker) (victim : Machine.worker) =
  if victim.gs_top = victim.gs_bot then None
  else
    Some
      (with_lock m w ~owner:victim.id (fun () ->
           let base = victim.gs_bot in
           sync m w ~kind:Trace.Ref_record.Steal base;
           let size = Cell.payload (rd m w base) in
           let goal = read_frame m w ~owner:victim.id base in
           victim.gs_bot <- base + size;
           m.Machine.published_goals <- m.Machine.published_goals - 1;
           wr m w (bot_word victim.id) (Cell.raw victim.gs_bot);
           normalize m w victim;
           goal))

(* Untraced probe used by idle PEs scanning for work. *)
let has_work (victim : Machine.worker) = victim.gs_top > victim.gs_bot

(* Peek the parcall frame of the newest own frame without popping
   (untraced; a join runs or discards only its own parcall's goals). *)
let peek_top_pf m (w : Machine.worker) =
  if w.gs_top = w.gs_bot then None
  else begin
    let size = Cell.payload (Memory.peek m.Machine.mem (w.gs_top - 1)) in
    let base = w.gs_top - size in
    Some (Cell.payload (Memory.peek m.Machine.mem (base + 1)))
  end
