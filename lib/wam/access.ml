(* The instruction set's memory footprint.

   One entry per (instruction, area): the directions Exec/Core may
   reference the area in, and how many references the instruction
   makes there on its success path:

     - the Code fetch is implicit, not listed;
     - a heap push is one Heap write; binding may add one Trail write
       (skipped for cells younger than the last choice point);
     - dereferencing follows Ref chains through heap cells and
       permanent variables (local-stack term cells); compiled code
       mostly dereferences bound registers, so one hop is counted;
     - general unification keeps the current pair in registers, so
       flat terms touch the PDL not at all; nested pairs push/pop two
       words at a time;
     - a choice point is [arity + 9] words; an environment's control
       part is 3 words written, 2 read on deallocate; permanent
       variables live at Env_pvar addresses.

   Failure-path effects (choice-point restore, trail replay, binding
   resets) are shared by all failing instructions and listed
   separately by [failure], because the machine attributes them to
   whatever instruction the PE last fetched — the failing one.

   Groundness refinement: head unification against a ground argument
   runs in read mode, so with a [ctx] proving the register ground the
   get/unify entries drop their binding writes.  The refinement is
   one-sided — it may only remove accesses that provably cannot
   happen; mismatch failure remains possible (ground terms still fail
   to unify), so [may_fail] is not refined. *)

open Trace.Area

type ctx = { ground : Instr.reg -> bool; struct_ground : bool }

type entry = {
  area : Trace.Area.t;
  ops : Trace.Ref_record.op list;
  lo : int;
  hi : int;
}

let many = max_int
let conservative = { ground = (fun _ -> false); struct_ground = false }
let e area ops lo hi = { area; ops; lo; hi }
let reads = [ Trace.Ref_record.Read ]
let writes = [ Trace.Ref_record.Write ]
let both = [ Trace.Ref_record.Read; Trace.Ref_record.Write ]

(* A unification on a term known ground only reads; otherwise it may
   bind. *)
let binds ground = if ground then reads else both

(* The permanent-variable references of an instruction naming [r]: at
   least the slot's own when [r] is a Y register, at most [y] then and
   [x] otherwise. *)
let pvar r ops ~y ~x =
  match r with
  | Instr.Y _ -> [ e Env_pvar ops 1 y ]
  | Instr.X _ -> [ e Env_pvar ops 0 x ]

let slot r ops =
  match r with Instr.Y _ -> [ e Env_pvar ops 1 1 ] | Instr.X _ -> []
let trail ok lo hi = if ok then [ e Trail writes lo hi ] else []

let builtin (b : Builtin.t) ~arity =
  match b with
  | Builtin.Is -> [ e Heap both 1 6; e Env_pvar both 0 2; e Trail writes 0 1 ]
  | Builtin.Lt | Builtin.Gt | Builtin.Le | Builtin.Ge | Builtin.Arith_eq
  | Builtin.Arith_ne | Builtin.Term_eq | Builtin.Term_ne | Builtin.Term_lt
  | Builtin.Term_gt | Builtin.Term_le | Builtin.Term_ge ->
    [ e Heap reads 2 8; e Env_pvar reads 0 2 ]
  | Builtin.Unify ->
    [ e Heap both 1 6; e Env_pvar both 0 3; e Pdl both 0 4; e Trail writes 0 2 ]
  | Builtin.Not_unify ->
    (* the trial bindings are trailed, then undone *)
    [ e Heap both 1 6; e Env_pvar both 0 3; e Pdl both 0 4; e Trail both 0 2 ]
  | Builtin.Var_p | Builtin.Nonvar_p | Builtin.Atom_p | Builtin.Integer_p
  | Builtin.Atomic_p | Builtin.Compound_p ->
    [ e Heap reads 0 1; e Env_pvar reads 0 1 ]
  | Builtin.Ground_p -> [ e Heap reads 1 16; e Env_pvar reads 0 1 ]
  | Builtin.Indep_p -> [ e Heap reads 2 24; e Env_pvar reads 0 2 ]
  (* write/1 and print/1 decode through untraced peeks *)
  | Builtin.True_b | Builtin.Fail_b | Builtin.Halt_b | Builtin.Nl
  | Builtin.Write_t | Builtin.Print_t ->
    []
  | Builtin.Functor_b ->
    [ e Heap both 1 4; e Env_pvar both 0 3; e Trail writes 0 2 ]
  | Builtin.Arg_b ->
    [ e Heap both 2 4; e Env_pvar both 0 3; e Trail writes 0 2 ]
  | Builtin.Univ ->
    [
      e Heap both 2 (4 + (2 * max 1 arity)); e Env_pvar both 0 3;
      e Trail writes 0 2;
    ]

let of_instr ?(ctx = conservative) ?(shallow = false) ~arity (i : Instr.t) =
  let entries =
    match i with
    (* put group *)
    | Instr.Put_variable (Instr.X _, _, false) -> [ e Heap writes 1 1 ]
    | Instr.Put_variable (Instr.Y _, _, false) -> [ e Env_pvar writes 1 1 ]
    | Instr.Put_variable (_, _, true) ->
      (* the dead self-reference init is an untraced store *)
      []
    | Instr.Put_value (r, _) -> slot r reads
    | Instr.Put_unsafe_value _ ->
      (* read the slot, deref; globalization adds a heap cell, a stack
         binding and possibly a trail entry *)
      [ e Env_pvar both 1 3; e Heap both 0 2; e Trail writes 0 1 ]
    | Instr.Put_constant _ | Instr.Put_integer _ | Instr.Put_nil _
    | Instr.Put_list _ ->
      []
    | Instr.Put_structure _ -> [ e Heap writes 1 1 ]
    (* get group: ground argument => pure read-mode matching *)
    | Instr.Get_variable (r, _) -> slot r writes
    | Instr.Get_value (r, _, cert) ->
      (* a rigid certificate elides the argument's deref loop; the
         unification that follows can still bind (and trail) subterm
         variables; an uncond one elides the trail writes *)
      let g = ctx.ground r in
      [ e Heap (binds g) 1 4; e Pdl both 0 2 ]
      @ pvar r (binds g) ~y:1 ~x:3
      @ trail ((not g) && cert <> Instr.Uncond) 0 1
    | Instr.Get_constant (_, a, false)
    | Instr.Get_integer (_, a, false)
    | Instr.Get_nil (a, false) ->
      let g = ctx.ground (Instr.X a) in
      [ e Heap (binds g) 0 2; e Env_pvar (binds g) 0 2 ] @ trail (not g) 0 1
    | Instr.Get_structure (_, a, Instr.Plain) ->
      (* read mode: deref + functor read; write mode: functor push +
         str binding *)
      let g = ctx.ground (Instr.X a) in
      [ e Heap (binds g) 1 3; e Env_pvar (binds g) 0 2 ] @ trail (not g) 0 1
    | Instr.Get_list (a, Instr.Plain) ->
      let g = ctx.ground (Instr.X a) in
      [ e Heap (binds g) 0 2; e Env_pvar (binds g) 0 2 ] @ trail (not g) 0 1
    (* certified attributes: no deref reads (the Ref chase is skipped),
       and an unconditional bind skips the trail write *)
    | Instr.Get_structure (_, _, Instr.Rigid) -> [ e Heap reads 1 1 ]
    | Instr.Get_list (_, Instr.Rigid) -> []
    | Instr.Get_structure (_, _, Instr.Uncond) ->
      (* functor push + cell overwrite *)
      [ e Heap writes 2 2; e Env_pvar writes 0 1 ]
    | Instr.Get_list (_, Instr.Uncond)
    | Instr.Get_constant (_, _, true)
    | Instr.Get_integer (_, _, true)
    | Instr.Get_nil (_, true) ->
      (* one direct overwrite of the certified-free cell *)
      [ e Heap writes 0 1; e Env_pvar writes 0 1 ]
    (* unify group: a ground structure being read never binds its own
       cells; register-side terms may still be bound unless also ground *)
    | Instr.Unify_variable r ->
      (* write: push; read: read the cell at S *)
      e Heap (binds ctx.struct_ground) 1 1 :: slot r writes
    | Instr.Unify_value r ->
      let g = ctx.struct_ground && ctx.ground r in
      [ e Heap (binds g) 1 4; e Pdl both 0 2 ]
      @ pvar r (binds g) ~y:1 ~x:3
      @ trail (not g) 0 1
    | Instr.Unify_local_value r ->
      (* write-mode globalization binds the stack cell *)
      let g = ctx.struct_ground && ctx.ground r in
      [ e Heap (binds g) 1 4; e Pdl both 0 2 ]
      @ pvar r (binds g) ~y:3 ~x:2
      @ trail (not g) 0 1
    | Instr.Unify_constant _ | Instr.Unify_integer _ | Instr.Unify_nil ->
      let g = ctx.struct_ground in
      [ e Heap (binds g) 1 3; e Env_pvar (binds g) 0 2 ] @ trail (not g) 0 1
    | Instr.Unify_void n ->
      if ctx.struct_ground then [] else [ e Heap writes 0 n ]
    (* control *)
    | Instr.Allocate _ -> [ e Env_control writes 3 3 ]
    | Instr.Deallocate -> [ e Env_control reads 2 2 ]
    | Instr.Call _ | Instr.Execute _ | Instr.Proceed | Instr.Jump _
    | Instr.Halt_ok ->
      []
    (* choice *)
    | Instr.Try (_, Instr.Deep) ->
      [ e Choice_point writes (arity + 9) (arity + 9) ]
    | Instr.Retry (_, Instr.Deep) -> [ e Choice_point both 2 2 ]
    | Instr.Trust (_, Instr.Deep) ->
      (* the popped frame's size and predecessor; the predecessor's
         size, HB and local-stack protection when one is live *)
      [ e Choice_point reads 2 5 ]
    (* shallow chains: the frame lives in processor registers, so the
       chain instructions themselves touch no memory *)
    | Instr.Try (_, Instr.Shallow)
    | Instr.Retry (_, Instr.Shallow)
    | Instr.Trust (_, Instr.Shallow) ->
      []
    (* indexing *)
    | Instr.Switch_on_term _ | Instr.Switch_on_constant _
    | Instr.Switch_on_integer _ ->
      [ e Heap reads 0 1; e Env_pvar reads 0 1 ]
    | Instr.Switch_on_structure _ -> [ e Heap reads 0 2; e Env_pvar reads 0 1 ]
    (* cut *)
    | Instr.Neck_cut -> [ e Choice_point reads 0 2 ]
    | Instr.Get_level _ -> [ e Env_pvar writes 1 1 ]
    | Instr.Cut_to _ -> [ e Env_pvar reads 1 1; e Choice_point reads 0 2 ]
    (* escapes: a certified builtin makes its bindings untrailed *)
    | Instr.Builtin (b, arity, false) -> builtin b ~arity
    | Instr.Builtin (b, arity, true) ->
      List.filter (fun x -> x.area <> Trail) (builtin b ~arity)
    (* parallel extensions *)
    | Instr.Check_ground _ -> [ e Heap reads 1 16; e Env_pvar reads 0 2 ]
    | Instr.Check_indep _ ->
      (* walks both terms: nothing on two atomic arguments *)
      [ e Heap reads 0 many; e Env_pvar reads 0 4 ]
    | Instr.Check_size (_, k, _) ->
      [ e Heap reads 1 (max 1 k); e Env_pvar reads 0 2 ]
    | Instr.Alloc_parcall (k, _) ->
      (* ten recovery words; lock, counter, status and acks; the
         parent word and one executor word per slot *)
      [
        e Parcall_local writes 10 10; e Parcall_count writes 4 4;
        e Parcall_global writes k (2 * k);
      ]
    | Instr.Push_goal (_, _, ar) ->
      (* the lock (one read, two writes), the frame's [ar + 6] words
         and the top pointer *)
      [ e Goal_frame both (ar + 10) (ar + 10) ]
    | Instr.Par_join ->
      (* commit/confirmation reads, locked counter updates, slot words,
         recovery state, local-goal pops and check-ins *)
      [
        e Parcall_count both 1 4; e Parcall_global both 0 many;
        e Parcall_local reads 0 many; e Goal_frame both 0 many;
      ]
    | Instr.Goal_done ->
      (* one check-in; a stolen goal's marker restores *)
      [
        e Parcall_count both 5 5; e Parcall_global both 2 2;
        e Marker reads 0 10;
      ]
  in
  (* reaching a committing instruction with a live shallow frame
     flushes the frame's undo log to the trail (Exec.commit_shallow) *)
  if shallow && Exec.commits i then e Trail writes 0 many :: entries
  else entries

let may entries area op =
  List.exists (fun x -> x.area = area && List.mem op x.ops) entries

let may_fail (i : Instr.t) =
  match i with
  | Instr.Get_value _ | Instr.Get_constant _ | Instr.Get_integer _
  | Instr.Get_nil _ | Instr.Get_structure _ | Instr.Get_list _
  | Instr.Unify_value _ | Instr.Unify_local_value _ | Instr.Unify_constant _
  | Instr.Unify_integer _ | Instr.Unify_nil | Instr.Switch_on_term _
  | Instr.Switch_on_constant _ | Instr.Switch_on_integer _
  | Instr.Switch_on_structure _ | Instr.Par_join ->
    true
  | Instr.Builtin (b, _, _) -> begin
    match b with
    | Builtin.True_b | Builtin.Write_t | Builtin.Print_t | Builtin.Nl
    | Builtin.Halt_b ->
      false
    | _ -> true
  end
  | _ -> false

(* The failure path restores registers from the current choice point
   and replays the trail, resetting trailed heap and local-stack cells
   through the same write-through accesses that bound them.

   In a parallel program the window stays open further: a goal failing
   inside a stack section checks in on the parcall frame and restores
   through its input marker before the PE fetches again; an inline
   goal failing at its parcall's barrier reads the frame's join
   address; and the subsequent steal attempt (goal-stack probes, marker
   push, slot claim) still belongs to the failing instruction. *)
let failure ~parallel =
  let base =
    [
      e Choice_point reads 0 many; e Trail reads 0 many; e Heap writes 0 many;
      e Env_pvar writes 0 many;
    ]
  in
  if not parallel then base
  else
    base
    @ [
        e Marker both 0 many; e Parcall_local reads 0 many;
        e Parcall_count both 0 many; e Parcall_global both 0 many;
        e Goal_frame both 0 many;
      ]
