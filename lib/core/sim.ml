(* The RAP-WAM multi-worker simulator.

   Workers execute one instruction per scheduler round (deterministic
   round-robin interleaving), producing an interleaved, tagged memory
   trace.  Spin-wait polls by Waiting/Idle workers are performed with
   untraced peeks: the paper's "work" metric counts only references
   made while doing actual processing, so busy-wait traffic (which a
   real PE would satisfy from its cache anyway) is excluded and
   accounted as wait/idle cycles instead.

   Forward execution protocol (one CGE of k goals):
     alloc_parcall  push a parcall frame (wait count k-1), make it the
                    current PF and the backtrack barrier
     push_goal      copy A1..An into a goal frame on the own goal
                    stack, for each of goals 2..k
     (inline call)  the parent executes the CGE's first goal as a
                    plain call whose continuation is the join
     par_join       loop: pop & run own pending goals as plain calls
                    (Local_goal, no marker); wait for remote check-ins;
                    continue when the counter reaches zero
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

type t = {
  m : Machine.t;
  queues : Messages.queues;
  mutable rounds : int;
  mutable stagnant : int; (* consecutive rounds with no Running worker *)
  steal : steal_policy;
  allow_steal : bool;
  memory : Memmodel.t option; (* integrated two-level memory timing *)
}

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
    queues = Messages.create_queues n_workers;
    rounds = 0;
    stagnant = 0;
    steal;
    allow_steal;
    memory;
  }

(* ------------------------------------------------------------------ *)
(* Goal lifecycle.                                                    *)

(* A goal the parent pops from its own goal stack runs as a plain call
   (no marker): the cheap local path. *)
let start_local_goal sim (w : Machine.worker) (goal : Goal_frame.goal)
    ~resume =
  let m = sim.m in
  Exec.abandon_shallow m w;
  Parcall.set_slot_exec m w goal.pf goal.slot w.id;
  w.exec_stack <-
    Machine.Local_goal
      { parcall = goal.pf; slot = goal.slot; resume; entry_b = w.b }
    :: w.exec_stack;
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
  Parcall.set_slot_exec m w goal.pf goal.slot w.id;
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
  | Machine.Local_goal { parcall; slot; resume; entry_b } :: rest ->
    w.exec_stack <- rest;
    ignore (Parcall.check_in m w parcall ~failed:false ~slot);
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
    ignore
      (Parcall.check_in m w ctx.Machine.parcall ~failed:false
         ~slot:ctx.Machine.slot);
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
  | Machine.Local_goal { parcall; slot; resume; entry_b = _ } :: rest ->
    (* a locally-run pushed goal failed: its bindings are undone by the
       parent's recovery untrail (same trail); just check in *)
    w.exec_stack <- rest;
    ignore (Parcall.check_in m w parcall ~failed:true ~slot);
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
    ignore
      (Parcall.check_in m w ctx.Machine.parcall ~failed:true
         ~slot:ctx.Machine.slot);
    w.status <- Machine.Idle

(* ------------------------------------------------------------------ *)
(* Messages.                                                          *)

(* Selective unwind: replay (reset) the trail segment of a completed
   section without recovering its stack space. *)
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
      Memory.write_auto m.Machine.mem ~pe:w.id a (Cell.ref_ a)
    done

let process_message sim (w : Machine.worker) =
  let m = sim.m in
  let msg = Messages.receive m sim.queues w in
  unwind_section sim w msg.Messages.pf msg.Messages.slot;
  Parcall.ack m w msg.Messages.pf

(* ------------------------------------------------------------------ *)
(* The parcall join.                                                  *)

let discard_own_goals_of sim (w : Machine.worker) pf =
  let m = sim.m in
  let rec go () =
    match Goal_frame.peek_top_pf m w with
    | Some p when p = pf -> begin
      match Goal_frame.pop_own m w with
      | Some goal ->
        ignore (Parcall.check_in m w pf ~failed:false ~slot:goal.slot);
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
        Messages.send m sim.queues w ~target:pe { Messages.pf; slot })
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
  else begin
    match Goal_frame.pop_own m w with
    | Some goal ->
      if Parcall.peek_status m goal.Goal_frame.pf = 1 then begin
        (* pending goal of an already-failed parcall: discard *)
        ignore
          (Parcall.check_in m w goal.Goal_frame.pf ~failed:false
             ~slot:goal.Goal_frame.slot);
        w.p <- join_addr (* loop *)
      end
      else start_local_goal sim w goal ~resume:join_addr
    | None ->
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
    else Goal_frame.has_work w || status = 1
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
  if sim.allow_steal && m.Machine.published_goals > 0 then begin
    let workers = m.Machine.workers in
    let n = Array.length workers in
    let i = ref 0 in
    while !i < n do
      let v = workers.((w.id + 1 + !i) mod n) in
      incr i;
      if v.Machine.id <> w.id && Goal_frame.has_work v then begin
        let got =
          match sim.steal with
          | Steal_oldest -> Goal_frame.steal m w v
          | Steal_newest -> Goal_frame.pop_newest m w v
        in
        match got with
        | Some goal ->
          i := n;
          if Parcall.peek_status m goal.Goal_frame.pf = 1 then
            ignore
              (Parcall.check_in m w goal.Goal_frame.pf ~failed:false
                 ~slot:goal.Goal_frame.slot)
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
    | None ->
      Machine.runtime_error "undefined parallel goal %s"
        (Symbols.spec_string m.Machine.symbols fid)
    | Some entry -> Goal_frame.push m w ~pf:w.pf ~slot ~entry ~arity
  end
  | Instr.Par_join -> par_join sim w
  | Instr.Goal_done -> goal_done sim w
  | _ -> (
    try Exec.step_core m w instr
    with Exec.No_more_choices _ -> total_failure sim w)

(* A PE whose memory transaction has not settled executes nothing
   this round (integrated memory timing only). *)
let memory_stalled sim (w : Machine.worker) =
  match sim.memory with
  | None -> false
  | Some mm -> Memmodel.stalled mm w.id

let act sim (w : Machine.worker) =
  if memory_stalled sim w then w.wait_cycles <- w.wait_cycles + 1
  else if Messages.pending sim.queues w then process_message sim w
  else begin
    match w.status with
    | Machine.Halted -> ()
    | Machine.Running -> step_running sim w
    | Machine.Waiting ->
      w.wait_cycles <- w.wait_cycles + 1;
      if join_actionable sim w then w.status <- Machine.Running
    | Machine.Idle -> try_steal sim w
  end

let round sim =
  let m = sim.m in
  (match sim.memory with
  | Some mm -> Memmodel.set_now mm sim.rounds
  | None -> ());
  let workers = m.Machine.workers in
  let n = Array.length workers in
  let any_running = ref false in
  for i = 0 to n - 1 do
    let w = workers.(i) in
    if w.Machine.status = Machine.Running || memory_stalled sim w then
      any_running := true
  done;
  for i = 0 to n - 1 do
    if not m.Machine.halted then act sim workers.(i)
  done;
  sim.rounds <- sim.rounds + 1;
  if !any_running then sim.stagnant <- 0
  else begin
    sim.stagnant <- sim.stagnant + 1;
    if sim.stagnant > 10_000 then
      Machine.runtime_error
        "deadlock: no runnable worker for %d rounds (rounds=%d)" sim.stagnant
        sim.rounds
  end

(* ------------------------------------------------------------------ *)
(* Query driver.                                                      *)

let default_max_rounds = 500_000_000

let run_prepared ?(max_rounds = default_max_rounds) sim prog =
  let m = sim.m in
  let w0 = Machine.worker m 0 in
  let addrs = Seq.seed_query m w0 prog in
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
