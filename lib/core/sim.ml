(* The RAP-WAM multi-worker simulator.

   Workers execute one instruction per scheduler round (deterministic
   round-robin interleaving), producing an interleaved, tagged memory
   trace.  Spin-wait polls by Waiting/Idle workers are performed with
   untraced peeks: the paper's "work" metric counts only references
   made while doing actual processing, so busy-wait traffic (which a
   real PE would satisfy from its cache anyway) is excluded and
   accounted as wait/idle cycles instead.

   A round visits only the PEs that can act.  After its turn, a PE
   whose next turn could not differ sleeps: an idle PE when no goal is
   published or stealing is off, a waiting PE when its join test
   fails, a halted PE for good.  Every event that can change a
   sleeper's test is made here and wakes it: a check-in, ack or slot
   write on a parcall frame wakes the frame's owner (a status update
   outside a check-in is the owner's own, when its inline goal
   fails), a message wakes its target, and a published goal wakes
   the idle sleepers.  Awake PEs act in id order, so a PE woken by PE j
   acts in the same round if its id is above j, else in the next --
   the turn order, and with it the trace, of a round that visits
   every PE.  A sleeper's missed turns are settled into its idle or
   wait cycles when it next acts, or when the run ends.

   Forward execution protocol (one CGE of k goals):
     alloc_parcall  push a parcall frame (wait count k-1), make it the
                    current PF and the backtrack barrier
     push_goal      copy A1..An into a goal frame on the own goal
                    stack, for each of goals 2..k
     (inline call)  the parent executes the CGE's first goal as a
                    plain call whose continuation is the join
     par_join       loop: pop & run this parcall's own pending goals as
                    plain calls (Local_goal, no marker); wait for remote
                    check-ins; continue when the counter reaches zero
     goal_done      return point of popped/stolen goals: check in,
                    commit, resume (parent) or go idle (thief)

   Stolen goals run under an input marker (Section_ctx) that delimits
   the section on the thief's stack set; goals the parent runs itself
   are ordinary calls, which keeps 1-PE RAP-WAM work close to the
   sequential WAM (and makes total work grow with the number of PEs as
   more goals are actually stolen -- the paper's Figure 2 behaviour).

   Backward execution: a failing goal marks the parcall failed and
   checks in; the parent (at par_join) drains unexecuted goals, asks
   remote executors to unwind their sections (messages, selective
   trail replay, acks), restores its own state from the parcall frame
   and fails past the CGE.  Backtracking into a parcall that already
   succeeded is not retried (remote goals are committed): the
   conservative reading of restricted backward semantics. *)

open Wam

type steal_policy = Steal_oldest | Steal_newest

type sched = {
  queues : Messages.queues;
  steal : steal_policy;
  allow_steal : bool;
  memory : Memmodel.t option; (* integrated two-level memory timing *)
  mutable stagnant : int; (* consecutive rounds with no Running worker *)
  mutable running : int; (* workers whose status is Running *)
  awake : Bytes.t; (* byte i is 1 while PE i takes turns *)
  slept_from : int array; (* first round an idle/waiting sleeper missed, or -1 *)
  mutable idle_asleep : int; (* sleeping Idle PEs *)
  mutable cursor : int; (* the PE whose turn it is: PEs below it had their slot *)
}

type t = { m : Machine.t; mutable rounds : int; sched : sched }

let create ?(sink = Trace.Sink.null) ?(steal = Steal_oldest)
    ?(allow_steal = true) ?memory ~n_workers prog =
  let sink =
    match memory with
    | None -> sink
    | Some mm -> Trace.Sink.tee sink (Memmodel.sink mm)
  in
  let m =
    Machine.create ~sink ~n_workers ~code:prog.Program.code
      ~symbols:prog.Program.symbols ()
  in
  {
    m;
    rounds = 0;
    sched =
      {
        queues = Messages.create_queues n_workers;
        steal;
        allow_steal;
        memory;
        stagnant = 0;
        running = 0;
        awake = Bytes.make n_workers '\001';
        slept_from = Array.make n_workers (-1);
        idle_asleep = 0;
        cursor = 0;
      };
  }

(* ------------------------------------------------------------------ *)
(* Sleep and wake-up.                                                 *)

let wake sim pe =
  let s = sim.sched in
  if Bytes.get s.awake pe = '\000' then begin
    Bytes.set s.awake pe '\001';
    if sim.m.Machine.workers.(pe).Machine.status = Machine.Idle then
      s.idle_asleep <- s.idle_asleep - 1
  end

(* A parcall frame sits on its parent's local stack, and only the
   parent waits on it: what changes the frame wakes the parent. *)
let wake_owner sim pf = wake sim (Layout.pe_of_addr pf)

(* A published goal is what an idle sleeper waits for. *)
let wake_idle sim =
  let s = sim.sched in
  if s.idle_asleep > 0 && s.allow_steal then
    Array.iter
      (fun (v : Machine.worker) -> if v.status = Machine.Idle then wake sim v.id)
      sim.m.Machine.workers

let sleep sim (w : Machine.worker) =
  let s = sim.sched in
  Bytes.set s.awake w.id '\000';
  match w.status with
  | Machine.Idle ->
    s.slept_from.(w.id) <- sim.rounds + 1;
    s.idle_asleep <- s.idle_asleep + 1
  | Machine.Waiting -> s.slept_from.(w.id) <- sim.rounds + 1
  | Machine.Halted | Machine.Running -> ()

(* Count [missed] turns of an idle or waiting sleeper. *)
let settle sim (w : Machine.worker) missed =
  sim.sched.slept_from.(w.id) <- -1;
  match w.status with
  | Machine.Idle -> w.idle_cycles <- w.idle_cycles + missed
  | Machine.Waiting -> w.wait_cycles <- w.wait_cycles + missed
  | Machine.Halted | Machine.Running -> ()

(* The run ends (halt, failure, error): settle every sleeper's slots
   up to the cursor of the current round. *)
let settle_sleepers sim =
  let s = sim.sched in
  Array.iter
    (fun (w : Machine.worker) ->
      let from = s.slept_from.(w.id) in
      if from >= 0 then
        settle sim w
          (sim.rounds - from + if w.id < s.cursor then 1 else 0))
    sim.m.Machine.workers

(* The frame operations that can change a parent's join test. *)
let check_in sim w pf ~failed ~slot =
  ignore (Parcall.check_in sim.m w pf ~failed ~slot);
  wake_owner sim pf

let set_slot_exec sim w pf slot =
  Parcall.set_slot_exec sim.m w pf slot w.Machine.id;
  wake_owner sim pf

(* ------------------------------------------------------------------ *)
(* Goal lifecycle.                                                    *)

(* A goal the parent pops from its own goal stack runs as a plain call
   (no marker): the cheap local path.  It starts under its own backtrack
   barrier, so its failure checks it in as failed instead of
   backtracking into the choice points the CGE's inline goal left. *)
let start_local_goal sim (w : Machine.worker) (goal : Goal_frame.goal)
    ~resume =
  let m = sim.m in
  Exec.abandon_shallow m w;
  set_slot_exec sim w goal.pf goal.slot;
  w.exec_stack <-
    Machine.Local_goal
      {
        parcall = goal.pf;
        slot = goal.slot;
        resume;
        entry_b = w.b;
        barrier = w.barrier;
      }
    :: w.exec_stack;
  w.barrier <- w.b;
  for i = 0 to goal.arity - 1 do
    w.x.(i + 1) <- goal.args.(i)
  done;
  w.nargs <- goal.arity;
  w.cp <- Compile.goal_done_addr;
  w.b0 <- w.b;
  w.p <- goal.entry;
  w.status <- Machine.Running;
  m.Machine.inferences <- m.Machine.inferences + 1

(* A stolen goal runs under an input marker delimiting its section on
   the thief's stack set. *)
let start_stolen_goal sim (w : Machine.worker) (goal : Goal_frame.goal) =
  let m = sim.m in
  Exec.abandon_shallow m w;
  set_slot_exec sim w goal.pf goal.slot;
  let marker = Marker.push m w ~pf:goal.pf ~slot:goal.slot ~resume_p:(-1) in
  let ctx =
    {
      Machine.marker_addr = marker;
      barrier_b = w.b;
      floor_cst = w.cst;
      floor_lst = w.lst;
      parcall = goal.pf;
      slot = goal.slot;
    }
  in
  w.exec_stack <- Machine.Section_ctx ctx :: w.exec_stack;
  w.barrier <- w.b;
  w.cst_floor <- w.cst;
  w.lst_floor <- w.lst;
  w.hb <- w.h;
  w.prot_lst <- w.lst;
  for i = 0 to goal.arity - 1 do
    w.x.(i + 1) <- goal.args.(i)
  done;
  w.nargs <- goal.arity;
  w.e <- -1;
  w.cp <- Compile.goal_done_addr;
  w.b0 <- w.b;
  w.pf <- -1;
  w.p <- goal.entry;
  w.status <- Machine.Running;
  m.Machine.inferences <- m.Machine.inferences + 1;
  m.Machine.goals_stolen <- m.Machine.goals_stolen + 1

(* Completion (the Goal_done instruction). *)
let goal_done sim (w : Machine.worker) =
  let m = sim.m in
  match w.exec_stack with
  | [] | Machine.Parcall_pending _ :: _ ->
    Machine.runtime_error "goal_done outside a parallel goal (PE %d)" w.id
  | Machine.Local_goal { parcall; slot; resume; entry_b; barrier } :: rest ->
    w.exec_stack <- rest;
    w.barrier <- barrier;
    check_in sim w parcall ~failed:false ~slot;
    (* commit: cut the local goal's leftover choice points so its
       alternatives match the committed remote goals *)
    if w.b <> entry_b then w.b <- entry_b;
    w.p <- resume
  | Machine.Section_ctx ctx :: rest ->
    let marker = ctx.Machine.marker_addr in
    (* remember the section's trail segment for selective unwinding *)
    let tr_start = Marker.saved_tr m w marker in
    w.sections <-
      (ctx.Machine.parcall, ctx.Machine.slot, tr_start, w.tr) :: w.sections;
    check_in sim w ctx.Machine.parcall ~failed:false ~slot:ctx.Machine.slot;
    w.b <- Marker.saved_b m w marker;
    Marker.restore_continuation m w marker;
    (* leaving the section: parcall floors of frames allocated inside
       it (all joined or torn down) no longer apply *)
    w.par_hb <- w.hb;
    w.par_prot <- w.prot_lst;
    w.exec_stack <- rest;
    w.status <- Machine.Idle

(* Total-failure dispatch (No_more_choices). *)
let total_failure sim (w : Machine.worker) =
  let m = sim.m in
  (* a torn-down context must not leave a live shallow frame behind *)
  Exec.abandon_shallow m w;
  match w.exec_stack with
  | [] ->
    (* the root query has no alternatives left *)
    m.Machine.failed <- true;
    w.status <- Machine.Halted
  | Machine.Parcall_pending pf :: _ ->
    (* the CGE's inline goal failed: mark the parcall failed and let
       the join run the failure protocol (entry popped on recovery) *)
    ignore
      (Parcall.locked_update m w pf ~off:Parcall.off_status (fun _ -> 1));
    w.p <- Parcall.join_addr m w pf;
    w.status <- Machine.Running
  | Machine.Local_goal { parcall; slot; resume; entry_b = _; barrier } :: rest
    ->
    (* a locally-run pushed goal failed: its bindings are undone by the
       parent's recovery untrail (same trail); just check in *)
    w.exec_stack <- rest;
    w.barrier <- barrier;
    check_in sim w parcall ~failed:true ~slot;
    w.p <- resume;
    w.status <- Machine.Running
  | Machine.Section_ctx ctx :: rest ->
    let marker = ctx.Machine.marker_addr in
    Exec.untrail_to m w (Marker.saved_tr m w marker);
    w.h <- Marker.saved_h m w marker;
    w.lst <- Marker.saved_lst m w marker;
    w.b <- Marker.saved_b m w marker;
    Marker.restore_continuation m w marker;
    w.par_hb <- w.hb;
    w.par_prot <- w.prot_lst;
    w.cst <- marker;
    w.exec_stack <- rest;
    check_in sim w ctx.Machine.parcall ~failed:true ~slot:ctx.Machine.slot;
    w.status <- Machine.Idle

(* ------------------------------------------------------------------ *)
(* Messages.                                                          *)

(* Selective unwind: replay (reset) the trail segment of a completed
   section without recovering its stack space.  An entry naming this
   PE's own local stack is a binding of the section's own environment
   (trailed because a parcall inside the section raised the protection
   floor): the environment died with the section, the PE has since
   reused its words, and resetting them would unbind live variables. *)
let unwind_section sim (w : Machine.worker) pf slot =
  let m = sim.m in
  let rec find acc = function
    | [] -> (None, List.rev acc)
    | ((spf, sslot, _, _) as s) :: rest when spf = pf && sslot = slot ->
      (Some s, List.rev_append acc rest)
    | s :: rest -> find (s :: acc) rest
  in
  let found, remaining = find [] w.sections in
  w.sections <- remaining;
  match found with
  | None -> () (* section already gone (the goal itself failed) *)
  | Some (_, _, tr_start, tr_end) ->
    for pos = tr_start to tr_end - 1 do
      let entry =
        Memory.read m.Machine.mem ~pe:w.id ~area:Trace.Area.Trail pos
      in
      let a = Cell.payload entry in
      if not (Layout.is_local_stack_addr a && Layout.pe_of_addr a = w.id) then
        Memory.write_auto m.Machine.mem ~pe:w.id a (Cell.ref_ a)
    done

let process_message sim (w : Machine.worker) =
  let m = sim.m in
  let msg = Messages.receive m sim.sched.queues w in
  unwind_section sim w msg.Messages.pf msg.Messages.slot;
  Parcall.ack m w msg.Messages.pf;
  wake_owner sim msg.Messages.pf

(* ------------------------------------------------------------------ *)
(* The parcall join.                                                  *)

let discard_own_goals_of sim (w : Machine.worker) pf =
  let m = sim.m in
  let rec go () =
    match Goal_frame.peek_top_pf m w with
    | Some p when p = pf -> begin
      match Goal_frame.pop_own m w with
      | Some goal ->
        check_in sim w pf ~failed:false ~slot:goal.slot;
        go ()
      | None -> ()
    end
    | Some _ | None -> ()
  in
  go ()

(* Slots a failing parent must ask other PEs to unwind: started on a
   remote PE (running or done). *)
let unwind_targets m (w : Machine.worker) pf ~peek =
  let k = Parcall.peek_k m pf in
  let targets = ref [] in
  for i = 0 to k - 1 do
    let v =
      if peek then
        Cell.payload (Memory.peek m.Machine.mem (pf + Parcall.off_slots + i))
      else Parcall.slot_exec m w pf i
    in
    let pe, started, _done = Parcall.decode_slot v in
    if started && pe <> w.id then targets := (i, pe) :: !targets
  done;
  List.rev !targets

(* Pop the Parcall_pending entry for [pf] (it must be on top). *)
let pop_pending (w : Machine.worker) pf =
  match w.exec_stack with
  | Machine.Parcall_pending p :: rest when p = pf -> w.exec_stack <- rest
  | _ :: _ | [] ->
    Machine.runtime_error "parcall frame %d is not the current context" pf

let handle_parcall_failure sim (w : Machine.worker) pf ~join_addr =
  let m = sim.m in
  if w.failing_pf <> pf then begin
    (* initiate: ask remote executors to unwind their sections *)
    let targets = unwind_targets m w pf ~peek:false in
    List.iter
      (fun (slot, pe) ->
        Messages.send m sim.sched.queues w ~target:pe { Messages.pf; slot };
        wake sim pe)
      targets;
    w.failing_pf <- pf;
    w.p <- join_addr;
    w.status <- Machine.Waiting
  end
  else begin
    let expected = List.length (unwind_targets m w pf ~peek:true) in
    if Parcall.peek_acks m pf >= expected then begin
      (* all remote executors acknowledged their unwinds (locked
         updates on the frame): joining here orders the recovery
         reads/writes after the remote trail replays *)
      Memory.sync m.Machine.mem ~pe:w.id ~kind:Trace.Ref_record.Join
        (pf + Parcall.off_lock);
      w.failing_pf <- -1;
      (* parent recovery from the parcall frame *)
      let saved_tr = Parcall.saved_tr m w pf in
      Exec.untrail_to m w saved_tr;
      w.h <- Parcall.saved_h m w pf;
      w.b <- Parcall.saved_b m w pf;
      w.cst <- Parcall.saved_cst m w pf;
      w.barrier <- Parcall.saved_barrier m w pf;
      w.pf <- Parcall.prev_pf m w pf;
      (* the dead frame's recovery floors no longer apply *)
      w.hb <- Parcall.saved_hb m w pf;
      w.prot_lst <- Parcall.saved_prot m w pf;
      w.par_hb <- w.hb;
      w.par_prot <- w.prot_lst;
      w.lst <- pf;
      pop_pending w pf;
      (* sections whose trail was just unwound are gone *)
      w.sections <-
        List.filter (fun (_, _, ts, _) -> ts < saved_tr) w.sections;
      w.status <- Machine.Running;
      try Exec.fail m w with Exec.No_more_choices _ -> total_failure sim w
    end
    else begin
      w.p <- join_addr;
      w.status <- Machine.Waiting
    end
  end

let par_join sim (w : Machine.worker) =
  let m = sim.m in
  let pf = w.pf in
  if pf = -1 then Machine.runtime_error "par_join without a parcall frame";
  let join_addr = w.p - 1 in
  let counter = Parcall.peek_counter m pf in
  let status = Parcall.peek_status m pf in
  if counter = 0 then begin
    (* every goal checked in (locked counter updates): the join edge
       orders the parent's confirmation reads -- and, on failure, its
       traced slot-word reads -- after the children's check-ins *)
    Memory.sync m.Machine.mem ~pe:w.id ~kind:Trace.Ref_record.Join
      (pf + Parcall.off_lock);
    if status = 0 then begin
      (* commit: traced confirmation reads, restore PF and barrier.
         The CGE commits as a unit: choice points its goals left
         (including the inline goal's) are cut away, so backtracking
         never re-enters a completed parcall -- the conservative
         restricted backward semantics. *)
      ignore (Parcall.counter m w pf);
      ignore (Parcall.status m w pf);
      w.barrier <- Parcall.saved_barrier m w pf;
      w.pf <- Parcall.prev_pf m w pf;
      let saved_b = Parcall.saved_b m w pf in
      if w.b <> saved_b then w.b <- saved_b;
      (* the frame is no longer a recovery point: drop the trail
         condition (and the parcall floors) back to what the enclosing
         recovery state needs, else determinate code keeps trailing
         against it forever *)
      let hb = Parcall.saved_hb m w pf in
      let prot = Parcall.saved_prot m w pf in
      w.hb <- hb;
      w.prot_lst <- prot;
      w.par_hb <- hb;
      w.par_prot <- prot;
      pop_pending w pf
      (* fall through: w.p already points past the join *)
    end
    else handle_parcall_failure sim w pf ~join_addr
  end
  else if status = 1 then begin
    (* failed: drop the goals nobody started.  Siblings already
       running finish on their own; once the counter drains they are
       unwound ([handle_parcall_failure]). *)
    discard_own_goals_of sim w pf;
    w.p <- join_addr (* loop until the counter drains *)
  end
  else if Goal_frame.peek_top_pf m w = Some pf then
    (* run the next goal of this parcall.  A goal of an enclosing
       parcall below it waits for its own join: run here, above this
       frame, its work would be undone if this parcall failed, after
       it had checked in as done. *)
    Option.iter
      (fun goal -> start_local_goal sim w goal ~resume:join_addr)
      (Goal_frame.pop_own m w)
  else begin
    w.p <- join_addr;
    w.status <- Machine.Waiting;
    w.wait_cycles <- w.wait_cycles + 1
  end

(* Untraced wake-up test for a worker waiting at a par_join. *)
let join_actionable sim (w : Machine.worker) =
  let m = sim.m in
  let pf = w.pf in
  if pf = -1 then true
  else begin
    let counter = Parcall.peek_counter m pf in
    let status = Parcall.peek_status m pf in
    if counter = 0 then
      if status = 0 then true
      else if w.failing_pf <> pf then true
      else
        Parcall.peek_acks m pf
        >= List.length (unwind_targets m w pf ~peek:true)
    else Goal_frame.peek_top_pf m w = Some pf || status = 1
  end

(* ------------------------------------------------------------------ *)
(* Stealing.                                                          *)

(* An idle PE scans the other PEs' goal stacks, starting after its
   own, and takes the first goal it can.  With no goal published on
   any stack the scan would find nothing and trace nothing, so the PE
   only counts its idle cycle. *)
let try_steal sim (w : Machine.worker) =
  let m = sim.m in
  w.idle_cycles <- w.idle_cycles + 1;
  if sim.sched.allow_steal && m.Machine.published_goals > 0 then begin
    let workers = m.Machine.workers in
    let n = Array.length workers in
    let i = ref 0 in
    while !i < n do
      let v = workers.((w.id + 1 + !i) mod n) in
      incr i;
      if v.Machine.id <> w.id && Goal_frame.has_work v then begin
        let got =
          match sim.sched.steal with
          | Steal_oldest -> Goal_frame.steal m w v
          | Steal_newest -> Goal_frame.pop_newest m w v
        in
        match got with
        | Some goal ->
          i := n;
          if Parcall.peek_status m goal.Goal_frame.pf = 1 then
            check_in sim w goal.Goal_frame.pf ~failed:false
              ~slot:goal.Goal_frame.slot
          else start_stolen_goal sim w goal
        | None -> ()
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* One scheduler round.                                               *)

let step_running sim (w : Machine.worker) =
  let m = sim.m in
  let instr = Exec.fetch_traced m w in
  (* same fetch-time shallow-commit check as Exec.step: the parallel
     instructions below also end a certified clause's test prefix *)
  Exec.maybe_commit m w instr;
  let op = Instr.opcode instr in
  m.Machine.opcode_freq.(op) <- m.Machine.opcode_freq.(op) + 1;
  w.instr_count <- w.instr_count + 1;
  m.Machine.steps <- m.Machine.steps + 1;
  w.p <- w.p + 1;
  match instr with
  | Instr.Alloc_parcall (k, join_addr) ->
    let pf = Parcall.alloc m w k ~join_addr in
    w.exec_stack <- Machine.Parcall_pending pf :: w.exec_stack
  | Instr.Push_goal (slot, fid, arity) -> begin
    match Code.entry m.Machine.code fid with
    | -1 ->
      Machine.runtime_error "undefined parallel goal %s"
        (Symbols.spec_string m.Machine.symbols fid)
    | entry ->
      Goal_frame.push m w ~pf:w.pf ~slot ~entry ~arity;
      wake_idle sim
  end
  | Instr.Par_join -> par_join sim w
  | Instr.Goal_done -> goal_done sim w
  | _ -> (
    try Exec.step_core m w instr
    with Exec.No_more_choices _ -> total_failure sim w)

(* A PE whose memory transaction has not settled executes nothing
   this round (integrated memory timing only).  Only a PE's own reads
   stall it, so a PE that is not stalled after its turn stays so until
   its next one. *)
let memory_stalled sim (w : Machine.worker) =
  match sim.sched.memory with
  | None -> false
  | Some mm -> Memmodel.stalled mm w.id

let act sim (w : Machine.worker) =
  if Messages.pending sim.sched.queues w then process_message sim w
  else begin
    match w.status with
    | Machine.Halted -> ()
    | Machine.Running -> step_running sim w
    | Machine.Waiting ->
      w.wait_cycles <- w.wait_cycles + 1;
      if join_actionable sim w then w.status <- Machine.Running
    | Machine.Idle -> try_steal sim w
  end

(* After a turn: keep the count of Running PEs, and put the PE to
   sleep when its next turn could not differ from a turn that only
   counts its cycle. *)
let after_turn sim (w : Machine.worker) ~was_running =
  let s = sim.sched in
  match w.status with
  | Machine.Running -> if not was_running then s.running <- s.running + 1
  | (Machine.Idle | Machine.Waiting | Machine.Halted) as status ->
    if was_running then s.running <- s.running - 1;
    if
      (not (Messages.pending s.queues w))
      && (not (memory_stalled sim w))
      &&
      match status with
      | Machine.Idle ->
        (not s.allow_steal) || sim.m.Machine.published_goals = 0
      | Machine.Waiting -> not (join_actionable sim w)
      | Machine.Halted | Machine.Running -> true
    then sleep sim w

let round sim =
  let m = sim.m in
  let s = sim.sched in
  (match s.memory with
  | Some mm -> Memmodel.set_now mm sim.rounds
  | None -> ());
  let workers = m.Machine.workers in
  let n = Array.length workers in
  (* a status changes only in its PE's own turn, and a stall only by
     its PE's own reads, so both read at a PE's slot as at the start *)
  let progress = ref (s.running > 0) in
  let i = ref 0 in
  while !i < n && not m.Machine.halted do
    if Bytes.get s.awake !i <> '\000' then begin
      let w = workers.(!i) in
      s.cursor <- !i;
      let from = s.slept_from.(!i) in
      if from >= 0 then settle sim w (sim.rounds - from);
      if memory_stalled sim w then begin
        progress := true;
        w.wait_cycles <- w.wait_cycles + 1
      end
      else begin
        let was_running = w.status = Machine.Running in
        act sim w;
        after_turn sim w ~was_running
      end
    end;
    incr i
  done;
  (* the PEs after a halting one get no slot in its round *)
  if m.Machine.halted then settle_sleepers sim;
  sim.rounds <- sim.rounds + 1;
  s.cursor <- 0;
  if !progress then s.stagnant <- 0
  else begin
    s.stagnant <- s.stagnant + 1;
    if s.stagnant > 10_000 then
      Machine.runtime_error
        "deadlock: no runnable worker for %d rounds (rounds=%d)" s.stagnant
        sim.rounds
  end

(* ------------------------------------------------------------------ *)
(* Query driver.                                                      *)

let default_max_rounds = 500_000_000

(* The worker counters are read straight after the run, so every exit
   settles the sleepers first. *)
let run_prepared ?(max_rounds = default_max_rounds) sim prog =
  let m = sim.m in
  let w0 = Machine.worker m 0 in
  let addrs = Seq.seed_query m w0 prog in
  sim.sched.running <-
    Array.fold_left
      (fun n (w : Machine.worker) ->
        if w.status = Machine.Running then n + 1 else n)
      0 m.Machine.workers;
  Fun.protect ~finally:(fun () -> settle_sleepers sim) @@ fun () ->
  try
    while not m.Machine.halted && not m.Machine.failed do
      if sim.rounds >= max_rounds then
        Machine.runtime_error "round limit exceeded (%d)" max_rounds;
      round sim
    done;
    if m.Machine.failed then Seq.Failure
    else Seq.Success (Seq.decode_answer m w0 prog addrs)
  with Exec.No_more_choices _ ->
    m.Machine.failed <- true;
    Seq.Failure

(* [run ~n_workers prog] executes the query on [n_workers] PEs. *)
let run ?sink ?steal ?allow_steal ?memory ?max_rounds ~n_workers prog =
  let sim = create ?sink ?steal ?allow_steal ?memory ~n_workers prog in
  let result = run_prepared ?max_rounds sim prog in
  (result, sim)

(* Convenience: parse, compile with CGEs enabled, run. *)
let solve ?steal ?allow_steal ?max_rounds ~n_workers ~src ~query () =
  let prog = Program.prepare ~parallel:true ~src ~query () in
  run ?steal ?allow_steal ?max_rounds ~n_workers prog
