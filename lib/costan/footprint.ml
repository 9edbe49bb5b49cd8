(* Static per-clause memory footprints.

   Generalizes the paper's §3.3 "memory references per instruction"
   constant into a per-predicate table: a clause costs the sum of its
   instructions' intervals in Wam.Access (the same area taxonomy the
   tracer uses), plus one Code read per instruction (the fetch).

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

(* ------------------------------------------------------------------ *)
(* Per-clause footprints: compile the clause alone (sequential reading,
   so CGEs flatten into conjunctions and every emitted instruction
   executes exactly once on the clause's success path) and sum the
   instructions' Wam.Access intervals. *)

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
  let arity =
    match cl.Prolog.Database.head with
    | Prolog.Term.Struct (_, args) -> List.length args
    | Prolog.Term.Atom _ | Prolog.Term.Int _ | Prolog.Term.Var _ -> 0
  in
  let instrs = clause_instrs cl in
  let refs = nil () in
  List.iter
    (fun i ->
      add_area refs Trace.Area.Code (point 1);
      List.iter
        (fun (x : Wam.Access.entry) -> add_area refs x.area (itv x.lo x.hi))
        (Wam.Access.of_instr ~arity i))
    instrs;
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
    (* one dereference of the first argument *)
    add_area fp Trace.Area.Heap (itv 0 1);
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
