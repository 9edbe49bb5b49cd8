(** Machine state: one shared memory plus per-worker (PE) register
    sets and stack-set pointers.

    Each worker owns the stack set carved out of its region by
    {!Layout}.  The X registers are processor registers: accessing
    them generates no memory traffic.  [-1] means "none" for [e], [b],
    [pf] and barriers. *)

type status =
  | Idle  (** no work assigned; may steal *)
  | Running
  | Waiting  (** blocked at a par_join *)
  | Halted

(** Cached mirror of an in-memory input marker. *)
type goal_ctx = {
  marker_addr : int;
  barrier_b : int;
  floor_cst : int;
  floor_lst : int;
  parcall : int;
  slot : int;
}

(** Entries of the worker's execution-context stack, in LIFO order:
    a pending (un-joined) parcall, a goal the parent runs as a plain
    call, or a stolen goal running under a marker.  A total failure
    (No_more_choices) dispatches on the top entry. *)
type exec_entry =
  | Parcall_pending of int
  | Local_goal of {
      parcall : int;
      slot : int;
      resume : int;
      entry_b : int;
      barrier : int;  (** the enclosing context's, restored at the end *)
    }
  | Section_ctx of goal_ctx

(** Worker-private shallow frame for determinacy-certified chains
    (try/retry/trust with the [Shallow] attribute): the register
    snapshot needed to retry the next alternative plus an undo log of
    bound addresses that predate the frame.  No choice-point-area
    words are written and nothing is trailed until the clause
    commits. *)
type shallow = {
  mutable sh_active : bool;
  mutable sh_alt : int;  (** code address of the next alternative *)
  mutable sh_nargs : int;
  sh_args : int array;  (** saved A1..An *)
  mutable sh_e : int;
  mutable sh_cp : int;
  mutable sh_b0 : int;
  mutable sh_h : int;
  mutable sh_lst : int;
  mutable sh_log : int list;  (** bound addresses predating the frame *)
  mutable sh_nt_log : int list;
      (** addresses bound by trail-elided (uncond-certified) writes
          under this frame: restored on a shallow retry, dropped at
          commit (the elision's certificate says nothing older needs
          them trailed) *)
}

type worker = {
  id : int;
  shallow : shallow;
  mutable p : int;  (** program counter (code index) *)
  mutable cp : int;  (** continuation *)
  mutable e : int;  (** current environment *)
  mutable b : int;  (** newest choice point *)
  mutable b0 : int;  (** cut barrier at last call *)
  mutable h : int;  (** heap top *)
  mutable hb : int;  (** heap backtrack point (trail condition) *)
  mutable s : int;  (** structure pointer (read mode) *)
  mutable tr : int;  (** trail top *)
  mutable pdl : int;  (** unification PDL top *)
  mutable lst : int;  (** local stack top *)
  mutable cst : int;  (** control stack top *)
  mutable prot_lst : int;  (** local-stack floor protected by live CPs *)
  mutable gs_top : int;  (** goal stack: next free word *)
  mutable gs_bot : int;  (** goal stack: oldest live frame *)
  mutable mode_write : bool;
  mutable no_trail : bool;
      (** set for the duration of an uncond builtin or get_value:
          [bind] skips trailing (logging to [sh_nt_log] under a
          shallow frame) *)
  x : int array;  (** X/A registers (1-based use) *)
  mutable nargs : int;
  mutable status : status;
  mutable exec_stack : exec_entry list;
  mutable barrier : int;  (** backtracking floor of the current context *)
  mutable cst_floor : int;
  mutable lst_floor : int;
  mutable pf : int;  (** current parcall frame *)
  mutable par_hb : int;
      (** heap floor imposed by the innermost live parcall frame:
          bindings to older cells must stay trailed for the recovery
          untrail, whatever choice-point pops restore HB to *)
  mutable par_prot : int;  (** local-stack floor, same role *)
  mutable failing_pf : int;  (** parcall whose unwind is in progress *)
  mutable sections : (int * int * int * int) list;
      (** completed sections: (pf, slot, trail start, trail end) *)
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
  mutable steps : int;
  mutable inferences : int;
  mutable parcalls : int;
  mutable goals_pushed : int;
  mutable goals_stolen : int;
  mutable published_goals : int;
      (** goal frames on the goal stacks, all PEs: pushed and not yet
          popped or stolen.  An idle PE scans for work only when this
          is positive. *)
  mutable cp_created : int;  (** choice points pushed (try) *)
  mutable cp_elided : int;  (** certified chains entered (shallow try) *)
  mutable trail_elided : int;
      (** trail tests+writes skipped by binding-certified code
          (uncond gets and builtins) *)
  mutable deref_skipped : int;
      (** deref loops skipped by rigid/uninit-certified reads *)
  mutable halted : bool;
  mutable failed : bool;
}

exception Runtime_error of string

val runtime_error : ('a, unit, string, 'b) format4 -> 'a
(** @raise Runtime_error always. *)

val max_workers : int
(** The most PEs one machine runs (128).  It is at most
    [Trace.Ref_record.max_pe], so every PE fits its trace words' PE
    field and {!Memory} need not check it per reference. *)

val create :
  ?sink:Trace.Sink.t -> n_workers:int -> code:Code.t -> symbols:Symbols.t ->
  unit -> t
(** A machine whose memory reads 0 everywhere and whose workers,
    registers and counters hold their initial values.  It is built on
    the storage of a {!release}d machine with [n_workers] workers when
    one is idle.  It interns nothing into [symbols]: the one atom the
    machine itself builds, [[]], is {!Symbols.nil} in every table.
    @raise Invalid_argument unless [1 <= n_workers <= max_workers]. *)

val release : t -> unit
(** Give the machine's memory and register files back for a later
    {!create} to reuse, zeroing what the run wrote: each page it wrote
    below the high-water mark of the area the page lies in (the PDL's
    and message buffer's pages whole), and the registers and saved
    arguments up to {!Code.regs} of the machine's code.  Words written
    around the machine (a {!Memory.poke} above a mark) are not the
    run's and stay.  Call it at most once, after the run returned and
    its answers and counters were read, and before the code is cut
    back ({!Program.release}); the machine must not be used
    afterwards.  A machine whose run raised is not released, so it is
    never reused.  At most 8 idle machines are kept. *)

val n_workers : t -> int
val worker : t -> int -> worker
val total_instr : t -> int

val note_high_water : worker -> unit

(** {1 Storage high-water marks, words} *)

val heap_used : worker -> int
val local_used : worker -> int
val control_used : worker -> int
val trail_used : worker -> int
