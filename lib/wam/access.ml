(* Static memory-access metadata of the instruction set.

   The footprints below mirror Exec/Core: every traced reference an
   instruction can emit appears here with its area and direction.
   Failure-path effects (choice-point restore, trail replay, binding
   resets) are shared by all failing instructions and exposed
   separately through [failure], because the machine attributes them
   to whatever predicate the PE last fetched — the failing one.

   Groundness refinement: head unification against a ground argument
   runs in read mode, so with a [ctx] proving the register ground the
   get/unify footprints drop their binding writes.  The refinement is
   one-sided — it may only remove accesses that provably cannot
   happen; mismatch failure remains possible (ground terms still fail
   to unify), so [may_fail] is not refined. *)

type op = R | W

type acc = { area : Trace.Area.t; op : op }

type ctx = { ground : Instr.reg -> bool; struct_ground : bool }

let conservative = { ground = (fun _ -> false); struct_ground = false }

let rd a = { area = a; op = R }
let wr a = { area = a; op = W }

open Trace.Area

(* Dereferencing follows Ref chains through heap and permanent
   variables (local-stack term cells). *)
let deref = [ rd Heap; rd Env_pvar ]

(* Binding writes through to a heap or local-stack cell and pushes a
   trail entry when the binding is conditional or cross-PE. *)
let bind = [ wr Heap; wr Env_pvar; wr Trail ]

let hpush = [ wr Heap ]
let pdl = [ rd Pdl; wr Pdl ]

(* General unification: deref both sides, PDL traversal, structure
   reads, bindings on either side. *)
let unify_full = deref @ pdl @ [ rd Heap ] @ bind

let get_reg : Instr.reg -> acc list = function
  | Instr.X _ -> []
  | Instr.Y _ -> [ rd Env_pvar ]

let set_reg : Instr.reg -> acc list = function
  | Instr.X _ -> []
  | Instr.Y _ -> [ wr Env_pvar ]

let builtin (b : Builtin.t) =
  match b with
  | Builtin.Is -> deref @ [ rd Heap ] @ bind
  | Builtin.Lt | Builtin.Gt | Builtin.Le | Builtin.Ge | Builtin.Arith_eq
  | Builtin.Arith_ne ->
    deref @ [ rd Heap ]
  | Builtin.Unify -> unify_full
  | Builtin.Not_unify -> unify_full @ [ rd Trail ] (* trial bindings undone *)
  | Builtin.Term_eq | Builtin.Term_ne | Builtin.Term_lt | Builtin.Term_gt
  | Builtin.Term_le | Builtin.Term_ge ->
    deref @ [ rd Heap ]
  | Builtin.Var_p | Builtin.Nonvar_p | Builtin.Atom_p | Builtin.Integer_p
  | Builtin.Atomic_p | Builtin.Compound_p ->
    deref
  | Builtin.Ground_p | Builtin.Indep_p -> deref @ [ rd Heap ]
  | Builtin.True_b | Builtin.Fail_b | Builtin.Halt_b | Builtin.Nl -> []
  | Builtin.Write_t | Builtin.Print_t -> deref @ [ rd Heap ]
  | Builtin.Functor_b -> deref @ [ rd Heap ] @ hpush @ bind
  | Builtin.Arg_b -> deref @ [ rd Heap ] @ bind
  | Builtin.Univ -> deref @ [ rd Heap ] @ hpush @ bind

(* Certified-unconditional bindings: the trail write is elided. *)
let untrailed accs = List.filter (fun a -> a.area <> Trail) accs

let of_instr ?(ctx = conservative) (i : Instr.t) =
  match i with
  (* put group *)
  | Instr.Put_variable (Instr.X _, _, false) -> hpush
  | Instr.Put_variable (Instr.Y _, _, false) -> [ wr Env_pvar ]
  | Instr.Put_variable (_, _, true) ->
    (* the dead self-reference init is an untraced store *)
    []
  | Instr.Put_value (r, _) -> get_reg r
  | Instr.Put_unsafe_value _ -> [ rd Env_pvar ] @ deref @ hpush @ bind
  | Instr.Put_constant _ | Instr.Put_integer _ | Instr.Put_nil _
  | Instr.Put_list _ ->
    []
  | Instr.Put_structure _ -> hpush
  (* get group: ground argument => pure read-mode matching *)
  | Instr.Get_variable (r, _) -> set_reg r
  | Instr.Get_value (r, _, cert) ->
    (* a rigid certificate elides the argument's deref loop; the
       unification that follows can still bind (and trail) subterm
       variables *)
    let accs =
      if ctx.ground r then get_reg r @ deref @ pdl @ [ rd Heap ]
      else get_reg r @ unify_full
    in
    if cert = Instr.Uncond then untrailed accs else accs
  | Instr.Get_constant (_, a, false)
  | Instr.Get_integer (_, a, false)
  | Instr.Get_nil (a, false) ->
    if ctx.ground (Instr.X a) then deref else deref @ bind
  | Instr.Get_structure (_, a, Instr.Plain) | Instr.Get_list (a, Instr.Plain) ->
    if ctx.ground (Instr.X a) then deref @ [ rd Heap ]
    else deref @ [ rd Heap ] @ hpush @ bind
  (* certified attributes: no deref reads (the Ref chase is skipped),
     and an unconditional bind skips the trail write *)
  | Instr.Get_structure (_, _, Instr.Rigid) -> [ rd Heap ]
  | Instr.Get_list (_, Instr.Rigid) -> []
  | Instr.Get_structure (_, _, Instr.Uncond)
  | Instr.Get_list (_, Instr.Uncond)
  | Instr.Get_constant (_, _, true)
  | Instr.Get_integer (_, _, true)
  | Instr.Get_nil (_, true) ->
    [ wr Heap; wr Env_pvar ]
  (* unify group: a ground structure being read never binds its own
     cells; register-side terms may still be bound unless also ground *)
  | Instr.Unify_variable r ->
    if ctx.struct_ground then rd Heap :: set_reg r
    else [ rd Heap; wr Heap ] @ set_reg r
  | Instr.Unify_value r | Instr.Unify_local_value r ->
    if ctx.struct_ground && ctx.ground r then
      get_reg r @ deref @ pdl @ [ rd Heap ]
    else get_reg r @ unify_full
  | Instr.Unify_constant _ | Instr.Unify_integer _ | Instr.Unify_nil ->
    if ctx.struct_ground then rd Heap :: deref
    else [ rd Heap; wr Heap ] @ deref @ [ wr Env_pvar; wr Trail ]
  | Instr.Unify_void _ -> if ctx.struct_ground then [] else hpush
  (* control *)
  | Instr.Allocate _ -> [ wr Env_control ]
  | Instr.Deallocate -> [ rd Env_control ]
  | Instr.Call _ | Instr.Execute _ | Instr.Proceed | Instr.Jump _
  | Instr.Halt_ok ->
    []
  (* choice *)
  | Instr.Try (_, Instr.Deep) -> [ wr Choice_point ]
  | Instr.Retry (_, Instr.Deep) -> [ rd Choice_point; wr Choice_point ]
  | Instr.Trust (_, Instr.Deep) -> [ rd Choice_point ]
  (* shallow chains: the frame lives in processor registers, so the
     chain instructions themselves touch no memory (commit-time trail
     flushes are charged to the binding instructions, whose footprints
     already include the trail write) *)
  | Instr.Try (_, Instr.Shallow)
  | Instr.Retry (_, Instr.Shallow)
  | Instr.Trust (_, Instr.Shallow) ->
    []
  (* indexing *)
  | Instr.Switch_on_term _ | Instr.Switch_on_constant _
  | Instr.Switch_on_integer _ ->
    deref
  | Instr.Switch_on_structure _ -> deref @ [ rd Heap ]
  (* cut *)
  | Instr.Neck_cut -> [ rd Choice_point ]
  | Instr.Get_level _ -> [ wr Env_pvar ]
  | Instr.Cut_to _ -> [ rd Env_pvar; rd Choice_point ]
  (* escapes *)
  | Instr.Builtin (b, _, false) -> builtin b
  | Instr.Builtin (b, _, true) -> untrailed (builtin b)
  (* parallel extensions *)
  | Instr.Check_ground (r, _) -> get_reg r @ deref @ [ rd Heap ]
  | Instr.Check_indep (r1, r2, _) ->
    get_reg r1 @ get_reg r2 @ deref @ [ rd Heap ]
  | Instr.Check_size (r, _, _) -> get_reg r @ deref @ [ rd Heap ]
  | Instr.Alloc_parcall _ ->
    [ wr Parcall_local; wr Parcall_count; wr Parcall_global ]
  | Instr.Push_goal _ -> [ rd Goal_frame; wr Goal_frame ]
  | Instr.Par_join ->
    (* commit/confirmation reads, locked counter updates, slot words,
       recovery state, local-goal pops and check-ins *)
    [
      rd Parcall_count; wr Parcall_count; rd Parcall_global;
      wr Parcall_global; rd Parcall_local; rd Goal_frame; wr Goal_frame;
    ]
  | Instr.Goal_done ->
    [
      rd Parcall_count; wr Parcall_count; rd Parcall_global;
      wr Parcall_global; rd Marker;
    ]

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

   In a parallel program the attribution window extends further: a
   goal failing inside a stack section checks in on the parcall frame
   and restores through its input marker before the PE fetches again,
   and the subsequent steal attempt (goal-stack probes, marker push,
   slot claim) still charges the failed predicate.  All of that lands
   in the footprint of whichever predicate's instruction failed. *)
let failure ~parallel =
  let base = [ rd Choice_point; rd Trail; wr Heap; wr Env_pvar ] in
  if not parallel then base
  else
    base
    @ [
        rd Marker; wr Marker; rd Parcall_count; wr Parcall_count;
        rd Parcall_global; wr Parcall_global; rd Goal_frame; wr Goal_frame;
      ]
