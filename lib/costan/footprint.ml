(* Static per-instruction memory footprints.

   Generalizes the paper's §3.3 "memory references per instruction"
   constant into a per-predicate table: each WAM instruction is mapped
   to an interval of tagged references per area (the same taxonomy the
   tracer uses), derived from Exec's actual read/write behaviour:

     - every executed instruction is one Code read (the fetch);
     - a heap push is one Heap write; binding may add one Trail write
       (skipped for cells younger than the last choice point);
     - dereferencing costs one read per chain hop -- bounded here by 1
       because compiled code dereferences mostly-bound registers;
     - general unification keeps the current pair in registers, so
       flat terms touch the PDL not at all; nested pairs push/pop two
       words at a time;
     - a choice point is [arity + 9] words; an environment's control
       part is 3 words written, 2 read on deallocate; permanent
       variables live at Env_pvar addresses.

   Intervals bound the *success path* of an instruction.  Failure
   sweeps (choice-point restoration, untrailing) are charged to the
   selection cost of the predicate that fails, approximately; this is
   the main source of slack in backtracking-heavy predicates and is
   why the analyzer reports intervals, not points. *)

open Domain

type t = interval array (* indexed by Trace.Area.to_int *)

let n_areas = Trace.Area.count
let nil () = Array.make n_areas zero

let add_area (fp : t) area i =
  let k = Trace.Area.to_int area in
  fp.(k) <- add fp.(k) i

let copy : t -> t = Array.copy
let sum (a : t) (b : t) : t = Array.init n_areas (fun i -> add a.(i) b.(i))

let data_total (a : t) =
  let code = Trace.Area.to_int Trace.Area.Code in
  let acc = ref zero in
  Array.iteri (fun i x -> if i <> code then acc := add !acc x) a;
  !acc

(* One dereference: zero hops when the register already holds a bound
   cell (the common case in compiled code), one when it holds a ref
   into the heap. *)
let d = itv 0 1

(* General unification of two argument cells: at least one read to
   compare, a few more plus a possible binding for small terms.  Deep
   terms recurse through the PDL; the slack is acceptable because
   Get_value/Unify (=/2) are rare in the benchmarks. *)
let unify_heap = itv 1 4
let unify_trail = itv 0 1
let unify_pdl = itv 0 2

let env_read r fp =
  match r with
  | Wam.Instr.X _ -> ()
  | Wam.Instr.Y _ -> add_area fp Trace.Area.Env_pvar (point 1)

(* Data references of one instruction on its success path.  [nargs] is
   the arity of the predicate the instruction belongs to (choice-point
   size).  The Code fetch is added uniformly at the end. *)
let instr ~nargs (i : Wam.Instr.t) : t =
  let fp = nil () in
  let heap x = add_area fp Trace.Area.Heap x in
  let trail x = add_area fp Trace.Area.Trail x in
  let pdl x = add_area fp Trace.Area.Pdl x in
  let envc x = add_area fp Trace.Area.Env_control x in
  let envp x = add_area fp Trace.Area.Env_pvar x in
  let cp x = add_area fp Trace.Area.Choice_point x in
  (match i with
  | Put_variable (_, _, true) -> () (* the self-reference init is untraced *)
  | Put_variable (X _, _, false) -> heap (point 1)
  | Put_variable (Y _, _, false) -> envp (point 1)
  | Put_value (r, _) -> env_read r fp
  | Put_unsafe_value _ ->
    (* read the slot, deref; globalization adds a heap cell, a stack
       binding and possibly a trail entry *)
    envp (itv 1 3);
    heap (itv 0 2);
    trail (itv 0 1)
  | Put_constant _ | Put_integer _ | Put_nil _ | Put_list _ -> ()
  | Put_structure _ -> heap (point 1)
  | Get_variable (r, _) -> env_read r fp
  | Get_value (r, _, cert) ->
    env_read r fp;
    heap unify_heap;
    (* Uncond: full unification, trail entries elided *)
    if cert <> Uncond then trail unify_trail;
    pdl unify_pdl
  | Get_constant (_, _, false) | Get_integer (_, _, false) | Get_nil (_, false)
    ->
    heap (add d (itv 0 1));
    trail (itv 0 1)
  | Get_structure (_, _, Plain) ->
    (* read mode: deref + functor read; write mode: functor push +
       str binding *)
    heap (itv 1 3);
    trail (itv 0 1)
  | Get_list (_, Plain) ->
    heap (add d (itv 0 1));
    trail (itv 0 1)
  (* binding-certified attributes (lib/bindan): no deref hop, no trail
     entry on the certified argument *)
  | Get_structure (_, _, Rigid) -> heap (point 1) (* functor read only *)
  | Get_list (_, Rigid) -> ()
  | Get_structure (_, _, Uncond) ->
    heap (point 2) (* functor push + cell overwrite *)
  | Get_list (_, Uncond)
  | Get_constant (_, _, true)
  | Get_integer (_, _, true)
  | Get_nil (_, true) ->
    (* one direct overwrite of the certified-free cell *)
    heap (itv 0 1);
    add_area fp Trace.Area.Env_pvar (itv 0 1)
  | Unify_variable r ->
    env_read r fp;
    heap (point 1) (* write: push; read: read the cell at S *)
  | Unify_value r ->
    env_read r fp;
    heap unify_heap;
    trail unify_trail;
    pdl unify_pdl
  | Unify_local_value r ->
    env_read r fp;
    heap unify_heap;
    trail unify_trail;
    pdl unify_pdl;
    (* write-mode globalization binds the stack cell *)
    add_area fp Trace.Area.Env_pvar (itv 0 2)
  | Unify_constant _ | Unify_integer _ | Unify_nil ->
    heap (itv 1 3);
    trail (itv 0 1)
  | Unify_void n -> heap (itv 0 n)
  | Allocate _ -> envc (point 3)
  | Deallocate -> envc (point 2)
  | Call _ | Execute _ | Proceed | Jump _ | Halt_ok -> ()
  | Try (_, Deep) -> cp (point (nargs + 9))
  | Retry (_, Deep) -> cp (point 2)
  | Trust (_, Deep) -> cp (itv 2 4)
  (* shallow frames live in processor registers: no choice-point
     words; a commit may flush logged bindings to the trail *)
  | Try (_, Shallow) | Retry (_, Shallow) | Trust (_, Shallow) -> ()
  | Switch_on_term _ -> heap d
  | Switch_on_constant _ | Switch_on_integer _ -> heap d
  | Switch_on_structure _ -> heap (add d (itv 0 1))
  | Neck_cut -> cp (itv 0 2)
  | Get_level _ -> envp (point 1)
  | Cut_to _ ->
    envp (point 1);
    cp (itv 0 2)
  | Builtin (b, ar, false) -> (
    match b with
    | True_b | Fail_b | Halt_b -> ()
    | Is ->
      (* evaluate a small expression tree (reads), bind the result *)
      heap (itv 1 6);
      trail (itv 0 1)
    | Lt | Gt | Le | Ge | Arith_eq | Arith_ne -> heap (itv 2 8)
    | Unify | Not_unify ->
      heap (itv 1 6);
      trail (itv 0 2);
      pdl (itv 0 4)
    | Term_eq | Term_ne | Term_lt | Term_gt | Term_le | Term_ge ->
      heap (itv 2 8)
    | Var_p | Nonvar_p | Atom_p | Integer_p | Atomic_p | Compound_p ->
      heap d
    | Ground_p -> heap (itv 1 16)
    | Indep_p -> heap (itv 2 24)
    | Write_t | Print_t | Nl -> ()
    | Functor_b ->
      heap (itv 1 4);
      trail (itv 0 2)
    | Arg_b -> heap (itv 2 4)
    | Univ -> heap (itv 2 (4 + (2 * max 1 ar))))
  | Builtin (b, _, true) -> (
    (* certified-unconditional bindings: no trail entries *)
    match b with
    | Is -> heap (itv 1 6)
    | Unify ->
      heap (itv 1 6);
      pdl (itv 0 4)
    | _ -> ())
  | Check_ground _ -> heap (itv 1 16)
  | Check_indep _ -> heap (itv 2 24)
  | Check_size (_, k, _) -> heap (itv 1 (max 1 k))
  | Alloc_parcall (k, _) ->
    add_area fp Trace.Area.Parcall_local (itv 2 4);
    add_area fp Trace.Area.Parcall_global (itv k (2 * k));
    add_area fp Trace.Area.Parcall_count (itv 1 2)
  | Push_goal (_, _, ar) ->
    add_area fp Trace.Area.Goal_frame (itv (ar + 2) (ar + 4))
  | Par_join ->
    add_area fp Trace.Area.Parcall_count (itv 1 4);
    add_area fp Trace.Area.Message (itv 0 4)
  | Goal_done -> add_area fp Trace.Area.Message (itv 0 4));
  add_area fp Trace.Area.Code (point 1);
  fp

(* ------------------------------------------------------------------ *)
(* Per-clause footprints: compile the clause alone (sequential reading,
   so CGEs flatten into conjunctions and every emitted instruction
   executes exactly once on the clause's success path) and sum the
   instruction footprints. *)

type clause_cost = {
  refs : t;  (** per successful execution of this clause's code *)
  instrs : int;  (** instructions emitted = Code references *)
  user_calls : int;  (** Call/Execute count = inferences charged here *)
}

let clause_instrs (clause : Prolog.Database.clause) : Wam.Instr.t list =
  let db = Prolog.Database.create () in
  Prolog.Database.add_clause db clause;
  let symbols = Wam.Symbols.create () in
  let code = Wam.Compile.compile_db ~parallel:false symbols db in
  (* instruction 0 is halt, 1 is goal_done; the clause follows *)
  let out = ref [] in
  for a = Wam.Code.length code - 1 downto 2 do
    out := Wam.Code.fetch code a :: !out
  done;
  !out

let clause (cl : Prolog.Database.clause) : clause_cost =
  let nargs =
    match cl.Prolog.Database.head with
    | Prolog.Term.Struct (_, args) -> List.length args
    | Prolog.Term.Atom _ | Prolog.Term.Int _ | Prolog.Term.Var _ -> 0
  in
  let instrs = clause_instrs cl in
  let refs =
    List.fold_left (fun acc i -> sum acc (instr ~nargs i)) (nil ()) instrs
  in
  let user_calls =
    List.length
      (List.filter
         (function Wam.Instr.Call _ | Wam.Instr.Execute _ -> true | _ -> false)
         instrs)
  in
  { refs; instrs = List.length instrs; user_calls }

(* ------------------------------------------------------------------ *)
(* Clause-selection overhead per call: indexing dispatch plus, for
   predicates where first-argument indexing cannot isolate a single
   clause, choice-point traffic (push + restore on the sweep that
   eventually discards it). *)

let first_arg_group (cl : Prolog.Database.clause) =
  match cl.Prolog.Database.head with
  | Prolog.Term.Struct (_, arg1 :: _) -> (
    match arg1 with
    | Prolog.Term.Var _ -> `Var
    | Prolog.Term.Atom a -> `Con a
    | Prolog.Term.Int n -> `Int n
    | Prolog.Term.Struct (f, args) -> `Str (f, List.length args))
  | Prolog.Term.Struct (_, []) | Prolog.Term.Atom _ | Prolog.Term.Int _
  | Prolog.Term.Var _ ->
    `Var

let deterministic_indexing clauses =
  (* every principal-functor bucket holds exactly one clause and no
     clause is variable-headed: switch_on_term dispatches straight to
     the single candidate, no try/retry/trust is ever executed *)
  let groups = Hashtbl.create 8 in
  List.for_all
    (fun cl ->
      match first_arg_group cl with
      | `Var -> false
      | g ->
        if Hashtbl.mem groups g then false
        else begin
          Hashtbl.add groups g ();
          true
        end)
    clauses

let selection ~arity clauses : t =
  let fp = nil () in
  match clauses with
  | [] | [ _ ] ->
    (* single clause (or undefined): entry jumps straight in *)
    fp
  | _ ->
    add_area fp Trace.Area.Code (itv 1 3);
    add_area fp Trace.Area.Heap d;
    if not (deterministic_indexing clauses) then begin
      (* a choice point may be pushed, restored after a failed clause
         (arguments re-read), updated by retry, and discarded by trust
         or a cut -- up to three passes over its words *)
      let words = arity + 9 in
      add_area fp Trace.Area.Choice_point (itv 0 ((3 * words) + 10));
      add_area fp Trace.Area.Trail (itv 0 4)
    end;
    fp

(* ------------------------------------------------------------------ *)
(* Query start-up: encoding the query's arguments onto the heap.  The
   cell counts mirror Exec's encode: a list node pushes two cells, a
   structure pushes its functor plus arity argument cells, atoms and
   integers are immediate in their parent's cell. *)

let rec encoded_cells (t : Prolog.Term.t) =
  match t with
  | Prolog.Term.Atom _ | Prolog.Term.Int _ -> 0
  | Prolog.Term.Var _ -> 1
  | Prolog.Term.Struct (".", [ h; tl ]) ->
    2 + encoded_cells h + encoded_cells tl
  | Prolog.Term.Struct (_, args) ->
    1 + List.length args
    + List.fold_left (fun acc a -> acc + encoded_cells a) 0 args
