(* Machine state: one shared memory plus per-worker (PE) register sets
   and stack-set pointers.

   Each worker owns the stack set carved out of its region by [Layout]:
   heap, local stack (environments, parcall frames), control stack
   (choice points, markers), trail, PDL, goal stack and message buffer.
   The X registers are processor registers: accessing them generates no
   memory traffic.

   Sentinel conventions: [-1] means "none" for e, b, and marker. *)

type status =
  | Idle (* no work assigned; may steal *)
  | Running
  | Waiting (* blocked at a par_join *)
  | Halted

(* Nested parallel-goal execution context (mirror of the in-memory
   input marker, cached to avoid re-reading it on every fail check). *)
type goal_ctx = {
  marker_addr : int;
  barrier_b : int; (* b at goal entry: backtracking floor *)
  floor_cst : int; (* control-stack floor (= marker end) *)
  floor_lst : int; (* local-stack floor at goal entry *)
  parcall : int; (* parcall frame address *)
  slot : int;
}

(* Entries of the worker's execution-context stack, in LIFO order of
   the events that created them.  The in-memory parcall frames and
   markers hold the authoritative data; this stack indexes them so a
   total failure (No_more_choices) can be dispatched exactly:
     Parcall_pending  alloc_parcall done, join not yet completed
                      (failure = the CGE's inline goal failed)
     Local_goal       a goal the parent popped from its own goal stack
                      and runs as a plain call (no marker)
     Section_ctx      a (stolen) goal run under an input marker       *)
type exec_entry =
  | Parcall_pending of int (* parcall frame address *)
  | Local_goal of {
      parcall : int;
      slot : int;
      resume : int;
      entry_b : int;
      barrier : int; (* the enclosing context's barrier, restored at the end *)
    }
  | Section_ctx of goal_ctx

(* Worker-private shallow frame for determinacy-certified chains
   (try/retry/trust with the [Shallow] attribute).  It plays the role
   of a choice point — enough state to retry the next alternative —
   but lives entirely in processor registers: no choice-point-area
   words are written, and
   conditional bindings go to [log] instead of the trail until the
   clause commits (reaches its first call/execute/proceed or parcall
   instruction), at which point surviving entries are flushed to the
   real trail. *)
type shallow = {
  mutable sh_active : bool;
  mutable sh_alt : int; (* code address of the next alternative *)
  mutable sh_nargs : int;
  sh_args : int array; (* saved A1..An *)
  mutable sh_e : int;
  mutable sh_cp : int;
  mutable sh_b0 : int;
  mutable sh_h : int;
  mutable sh_lst : int;
  mutable sh_log : int list; (* bound addresses predating the frame *)
  mutable sh_nt_log : int list;
  (* addresses bound by trail-elided (uncond-certified) writes under
     this frame: restored on a shallow retry like [sh_log], but
     DROPPED at commit — the certificate says no live choice point or
     parcall floor predates the cell, so the flush is the write the
     elision deletes *)
}

type worker = {
  id : int;
  shallow : shallow;
  mutable p : int;
  mutable cp : int;
  mutable e : int;
  mutable b : int;
  mutable b0 : int;
  mutable h : int;
  mutable hb : int;
  mutable s : int;
  mutable tr : int;
  mutable pdl : int;
  mutable lst : int; (* local stack top *)
  mutable cst : int; (* control stack top *)
  mutable prot_lst : int; (* local-stack floor protected by live CPs *)
  mutable gs_top : int; (* goal stack: next free slot (grows up) *)
  mutable gs_bot : int; (* goal stack: oldest live frame *)
  mutable mode_write : bool;
  mutable no_trail : bool;
  (* set for the duration of an uncond builtin or get_value: [bind]
     skips the trail test and write (logging to [sh_nt_log] under an
     active shallow frame instead) *)
  x : int array; (* X/A registers (1-based use; 4096 of them) *)
  mutable nargs : int; (* arity at last call *)
  mutable status : status;
  mutable exec_stack : exec_entry list; (* nested execution contexts *)
  mutable barrier : int; (* b floor of current execution context *)
  mutable cst_floor : int;
  mutable lst_floor : int;
  mutable pf : int; (* current parcall frame, -1 when none *)
  mutable par_hb : int;
  (* heap floor imposed by the innermost live parcall frame: the
     recovery protocol untrails to the frame's saved TR, so bindings to
     heap cells older than this must stay trailed even after a cut or
     trust restores HB from a choice point that predates the frame *)
  mutable par_prot : int; (* local-stack floor, same role *)
  mutable failing_pf : int; (* parcall whose unwind we initiated, -1 *)
  mutable sections : (int * int * int * int) list;
  (* completed parallel-goal sections on this worker's stack set:
     (parcall frame, slot, trail start, trail end) *)
  (* statistics *)
  mutable instr_count : int;
  mutable idle_cycles : int;
  mutable wait_cycles : int;
  mutable max_h : int;
  mutable max_lst : int;
  mutable max_cst : int;
  mutable max_tr : int;
  mutable max_gs : int;
}

type t = {
  mem : Memory.t;
  code : Code.t;
  symbols : Symbols.t;
  workers : worker array;
  opcode_freq : int array;
  mutable steps : int; (* executed instructions, all workers *)
  mutable inferences : int; (* procedure calls (call/execute/goal starts) *)
  mutable parcalls : int; (* parcall frames allocated *)
  mutable goals_pushed : int;
  mutable goals_stolen : int; (* goals executed by a PE other than pusher *)
  mutable published_goals : int;
  (* frames on the goal stacks: pushed and not yet popped or stolen;
     an idle PE scans for work only when this is positive *)
  mutable cp_created : int; (* choice points pushed (try) *)
  mutable cp_elided : int; (* certified chains entered shallow (shallow try) *)
  mutable trail_elided : int; (* trail tests+writes skipped (uncond binds) *)
  mutable deref_skipped : int; (* deref loops skipped (rigid, uncond reads) *)
  mutable halted : bool;
  mutable failed : bool;
}

exception Runtime_error of string

let runtime_error fmt =
  Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let make_shallow sh_args =
  {
    sh_active = false;
    sh_alt = -1;
    sh_nargs = 0;
    sh_args;
    sh_e = -1;
    sh_cp = 0;
    sh_b0 = -1;
    sh_h = 0;
    sh_lst = 0;
    sh_log = [];
    sh_nt_log = [];
  }

(* [x] and [args] are the register file and the shallow frame's saved
   arguments: zeroed arrays of 4096 and 256 words. *)
let make_worker ~x ~args id =
  {
    id;
    shallow = make_shallow args;
    p = 0;
    cp = 0;
    e = -1;
    b = -1;
    b0 = -1;
    h = Layout.heap_base id;
    hb = Layout.heap_base id;
    s = 0;
    tr = Layout.trail_base id;
    pdl = Layout.pdl_base id;
    lst = Layout.local_base id;
    cst = Layout.control_base id;
    prot_lst = Layout.local_base id;
    (* goal-stack words 0..2 hold the lock and the top/bottom pointers *)
    gs_top = Layout.goal_base id + 3;
    gs_bot = Layout.goal_base id + 3;
    mode_write = false;
    no_trail = false;
    x;
    nargs = 0;
    status = Idle;
    exec_stack = [];
    barrier = -1;
    cst_floor = Layout.control_base id;
    lst_floor = Layout.local_base id;
    pf = -1;
    par_hb = Layout.heap_base id;
    par_prot = Layout.local_base id;
    failing_pf = -1;
    sections = [];
    instr_count = 0;
    idle_cycles = 0;
    wait_cycles = 0;
    max_h = Layout.heap_base id;
    max_lst = Layout.local_base id;
    max_cst = Layout.control_base id;
    max_tr = Layout.trail_base id;
    max_gs = Layout.goal_base id;
  }

let max_workers = 128

(* Released machines, reset, waiting for a [create] with their number
   of workers.  A run that raised never reaches [release], so its
   machine is left to the collector. *)
let idle : t Reuse.t = Reuse.create ~limit:8

let create ?(sink = Trace.Sink.null) ~n_workers ~code ~symbols () =
  if n_workers < 1 || n_workers > max_workers then
    invalid_arg
      (Printf.sprintf "Machine.create: n_workers must be in 1..%d" max_workers);
  let mem, workers =
    match Reuse.take idle ~fits:(fun m -> Array.length m.workers = n_workers) with
    | Some old ->
      ( Memory.create ~sink ~reuse:old.mem (),
        Array.map
          (fun w -> make_worker ~x:w.x ~args:w.shallow.sh_args w.id)
          old.workers )
    | None ->
      ( Memory.create ~sink (),
        Array.init n_workers (fun id ->
            make_worker ~x:(Array.make 4096 0) ~args:(Array.make 256 0) id) )
  in
  {
    mem;
    code;
    symbols;
    workers;
    opcode_freq = Array.make Instr.opcode_count 0;
    steps = 0;
    inferences = 0;
    parcalls = 0;
    goals_pushed = 0;
    goals_stolen = 0;
    published_goals = 0;
    cp_created = 0;
    cp_elided = 0;
    trail_elided = 0;
    deref_skipped = 0;
    halted = false;
    failed = false;
  }

(* An address at or above which the run wrote nothing of the page
   starting at [a]: the high-water mark of the area the page lies in,
   or the live stack pointer when that is higher (a goal stack's
   pointer starts above its mark, past the lock and pointer words).  The marks cost nothing new: each
   is raised where its pointer is, for the storage statistics.  The
   PDL and the message buffer keep no mark, so their pages are zeroed
   whole. *)
let written_below m a =
  let pe = Layout.pe_of_addr a in
  if pe < 0 || pe >= Array.length m.workers then max_int
  else
    let w = m.workers.(pe) in
    match Layout.area_of_addr a with
    | Trace.Area.Heap -> max w.max_h w.h
    | Trace.Area.Env_pvar -> max w.max_lst w.lst
    | Trace.Area.Choice_point -> max w.max_cst w.cst
    | Trace.Area.Trail -> max w.max_tr w.tr
    | Trace.Area.Goal_frame -> max w.max_gs w.gs_top
    | _ -> max_int

(* Zero what the run wrote, so that [create] can hand out the memory
   and the register files as they were new; the worker records and
   counters are made afresh there.  A served query writes a few
   hundred words of its pages and a few dozen registers, so only the
   words below each area's mark and the registers up to the code's
   bound are zeroed. *)
let release m =
  Memory.clear m.mem ~limit:(written_below m);
  let regs = Code.regs m.code + 1 in
  Array.iter
    (fun w ->
      Array.fill w.x 0 (min regs (Array.length w.x)) 0;
      let args = w.shallow.sh_args in
      Array.fill args 0 (min regs (Array.length args)) 0)
    m.workers;
  Reuse.give idle m

let n_workers m = Array.length m.workers
let worker m i = m.workers.(i)

let total_instr m =
  Array.fold_left (fun acc w -> acc + w.instr_count) 0 m.workers

(* Storage high-water marks, in words, summed over workers. *)
let note_high_water w =
  if w.h > w.max_h then w.max_h <- w.h;
  if w.lst > w.max_lst then w.max_lst <- w.lst;
  if w.cst > w.max_cst then w.max_cst <- w.cst;
  if w.tr > w.max_tr then w.max_tr <- w.tr;
  if w.gs_top > w.max_gs then w.max_gs <- w.gs_top

let heap_used w = w.max_h - Layout.heap_base w.id
let local_used w = w.max_lst - Layout.local_base w.id
let control_used w = w.max_cst - Layout.control_base w.id
let trail_used w = w.max_tr - Layout.trail_base w.id
