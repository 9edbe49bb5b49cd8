(* Static per-predicate access summaries over compiled WAM bytecode.

   The compiler lays each predicate out contiguously from its entry,
   so sorting the entry map partitions the code area into ranges (the
   ranges Wam.Profile attributes the trace's windows to, so the two
   sides of the oracle align).  Each range is scanned with a
   small abstract state (groundness of argument and permanent
   registers, read/write mode of the unification sequence in
   progress), seeded from Prolog.Abspat call patterns:

     - at the entry and at every clause-dispatch target (try/retry/
       trust and switch labels) the argument registers hold the
       original call arguments, so the inferred call pattern applies;
     - at any other label (CGE else-branches, jump targets, the
       parcall join) nothing is assumed;
     - groundness only ever *removes* accesses (a ground unification
       runs in read mode); failure remains possible everywhere.

   Per-instruction footprints come from Wam.Access; a predicate
   containing any may-fail instruction also absorbs the failure-path
   footprint (choice-point restore + trail replay), with the parallel
   overlay when the program contains parcalls.

   Call-graph closures are joined bottom-up in Analysis.Depgraph
   topological order (callees before callers); strongly connected
   components converge by iterating passes to a fixpoint. *)

type smode = Sg (* reading a ground structure *) | Sw (* write mode *) | Su

type pred = {
  fid : int;
  name : string;
  arity : int;
  entry : int;
  stop : int;  (** exclusive end of the code range *)
  own : Summary.t;
  mutable closure : Summary.t;
  callees : int list;  (** functor ids called from this range *)
  fails : bool;
}

type t = {
  preds : (int, pred) Hashtbl.t;
  order : int list;  (** fids, callees before callers *)
  parallel : bool;
  symbols : Wam.Symbols.t;
  program : Summary.t;  (** join of every closure *)
  iterations : int;  (** closure passes until the fixpoint *)
}

let spec t fid = Wam.Symbols.spec_string t.symbols fid

let find t fid = Hashtbl.find_opt t.preds fid

let find_spec t ~name ~arity =
  let fid = Wam.Symbols.functor_ t.symbols name arity in
  find t fid

(* ------------------------------------------------------------------ *)
(* Range analysis.                                                    *)

let max_x = 256

type state = {
  mutable x : Prolog.Abspat.gfa array;
  mutable y : Prolog.Abspat.gfa array;
  mutable sm : smode;
}

let read_reg st (r : Wam.Instr.reg) =
  match r with
  | Wam.Instr.X i -> if i >= 0 && i < max_x then st.x.(i) else Prolog.Abspat.Any
  | Wam.Instr.Y n ->
    if n >= 0 && n < Array.length st.y then st.y.(n) else Prolog.Abspat.Any

let write_reg st (r : Wam.Instr.reg) v =
  match r with
  | Wam.Instr.X i -> if i >= 0 && i < max_x then st.x.(i) <- v
  | Wam.Instr.Y n ->
    if n >= Array.length st.y then begin
      let bigger = Array.make (max (n + 1) (2 * Array.length st.y)) Prolog.Abspat.Any in
      Array.blit st.y 0 bigger 0 (Array.length st.y);
      st.y <- bigger
    end;
    st.y.(n) <- v

let seed_args st (pattern : Prolog.Abspat.gfa array option) ~arity =
  Array.fill st.x 0 max_x Prolog.Abspat.Any;
  (match pattern with
  | Some args ->
    for i = 1 to min arity (Array.length args) do
      st.x.(i) <- args.(i - 1)
    done
  | None -> ());
  st.sm <- Su

let kill_x st =
  Array.fill st.x 0 max_x Prolog.Abspat.Any;
  st.sm <- Su

(* A call clobbers argument registers; permanent variables survive,
   but only definite groundness is stable (free variables may have
   been bound through the callee). *)
let degrade_after_call st =
  kill_x st;
  Array.iteri
    (fun i g -> if g <> Prolog.Abspat.Ground then st.y.(i) <- Prolog.Abspat.Any)
    st.y

let step st (i : Wam.Instr.t) =
  let open Wam.Instr in
  let open Prolog.Abspat in
  match i with
  | Put_variable (r, a, _) ->
    write_reg st r Free;
    write_reg st (X a) Free
  | Put_value (r, a) -> write_reg st (X a) (read_reg st r)
  | Put_unsafe_value (n, a) -> write_reg st (X a) (read_reg st (Y n))
  | Put_constant (_, a) -> write_reg st (X a) Ground
  | Put_structure (_, a) | Put_list a ->
    write_reg st (X a) Any;
    st.sm <- Sw
  | Get_variable (r, a) -> write_reg st r (read_reg st (X a))
  | Get_value (r, a, _) ->
    let g =
      if read_reg st r = Ground || read_reg st (X a) = Ground then Ground
      else Any
    in
    write_reg st r g;
    write_reg st (X a) g
  | Get_constant (_, a, _) -> write_reg st (X a) Ground
  | Get_structure (_, a, Plain) | Get_list (a, Plain) ->
    if read_reg st (X a) = Ground then st.sm <- Sg
    else begin
      write_reg st (X a) Any;
      st.sm <- Su
    end
  | Get_structure (_, a, Rigid) | Get_list (a, Rigid) ->
    (* rigid depth-0 certificate: the argument is bound, not ground *)
    write_reg st (X a) Any;
    st.sm <- Su
  | Get_structure (_, a, Uncond) | Get_list (a, Uncond) ->
    (* certified free: the head term is built in write mode *)
    write_reg st (X a) Any;
    st.sm <- Sw
  | Unify_variable r ->
    write_reg st r (match st.sm with Sg -> Ground | Sw -> Free | Su -> Any)
  | Unify_value r | Unify_local_value r ->
    if st.sm = Sg then write_reg st r Ground
    else if read_reg st r <> Ground then write_reg st r Any
  | Unify_constant _ | Unify_void _ -> ()
  | Allocate n -> st.y <- Array.make (max n 1) Any
  | Deallocate -> Array.fill st.y 0 (Array.length st.y) Any
  | Call _ -> degrade_after_call st
  | Par_join -> degrade_after_call st
  | Builtin (b, n, _) ->
    (* builtins may bind their arguments in place *)
    for i = 1 to min n (max_x - 1) do
      if st.x.(i) <> Ground then st.x.(i) <- Any
    done;
    if b = Wam.Builtin.Is then st.x.(1) <- Ground;
    st.sm <- Su
  | Execute _ | Proceed | Halt_ok | Goal_done | Jump _ ->
    (* end of straight-line flow: anything following is reached only
       through a label, which reseeds *)
    kill_x st;
    Array.fill st.y 0 (Array.length st.y) Any
  | Try _ | Retry _ | Trust _ | Switch_on_term _ | Switch_on_constant _
  | Switch_on_structure _ | Neck_cut | Cut_to _
  | Check_ground _ | Check_indep _ | Check_size _ | Alloc_parcall _
  | Push_goal _ ->
    ()
  | Get_level n -> write_reg st (Y n) Any

(* Label targets inside [entry, stop): dispatch targets are reached
   with the original call arguments in place (clause selection and
   backtracking restore them); other targets assume nothing. *)
let targets code ~entry ~stop =
  let dispatch = Hashtbl.create 16 and unknown = Hashtbl.create 16 in
  let add tbl l = if l >= entry && l < stop then Hashtbl.replace tbl l () in
  for addr = entry to stop - 1 do
    match Wam.Code.fetch code addr with
    | Wam.Instr.Try (l, _) | Wam.Instr.Retry (l, _) | Wam.Instr.Trust (l, _) ->
      add dispatch l
    | Wam.Instr.Switch_on_term { var_l; con_l; int_l; lis_l; str_l } ->
      List.iter (add dispatch) [ var_l; con_l; int_l; lis_l; str_l ]
    | Wam.Instr.Switch_on_constant (tbl, d)
    | Wam.Instr.Switch_on_structure (tbl, d) ->
      Array.iter (fun (_, l) -> add dispatch l) tbl;
      add dispatch d
    | Wam.Instr.Jump l -> add unknown l
    | Wam.Instr.Check_ground (_, l)
    | Wam.Instr.Check_size (_, _, l)
    | Wam.Instr.Check_indep (_, _, l) ->
      add unknown l
    | Wam.Instr.Alloc_parcall (_, join) -> add unknown join
    | _ -> ()
  done;
  (* a retry/trust chain is entered by backtracking at the instruction
     itself with restored arguments: seed there too *)
  for addr = entry to stop - 1 do
    match Wam.Code.fetch code addr with
    | Wam.Instr.Retry _ | Wam.Instr.Trust _ -> Hashtbl.replace dispatch addr ()
    | _ -> ()
  done;
  (dispatch, unknown)

let analyze_range code ~parallel ~fid:_ ~arity ~entry ~stop pattern =
  let own = Summary.empty () in
  let st =
    { x = Array.make max_x Prolog.Abspat.Any; y = Array.make 8 Prolog.Abspat.Any; sm = Su }
  in
  let dispatch, unknown = targets code ~entry ~stop in
  let callees = ref [] and fails = ref false in
  seed_args st pattern ~arity;
  for addr = entry to stop - 1 do
    if Hashtbl.mem unknown addr then begin
      seed_args st None ~arity;
      Array.fill st.y 0 (Array.length st.y) Prolog.Abspat.Any
    end
    else if addr = entry || Hashtbl.mem dispatch addr then
      seed_args st pattern ~arity;
    let instr = Wam.Code.fetch code addr in
    let ctx =
      {
        Wam.Access.ground = (fun r -> read_reg st r = Prolog.Abspat.Ground);
        struct_ground = st.sm = Sg;
      }
    in
    Summary.add_entries own (Wam.Access.of_instr ~ctx ~arity instr);
    if Wam.Access.may_fail instr then fails := true;
    (match instr with
    | Wam.Instr.Call f | Wam.Instr.Execute f | Wam.Instr.Push_goal (_, f, _)
      ->
      if not (List.mem f !callees) then callees := f :: !callees
    | _ -> ());
    step st instr
  done;
  if !fails then Summary.add_entries own (Wam.Access.failure ~parallel);
  (own, List.rev !callees, !fails)

(* ------------------------------------------------------------------ *)
(* Whole-program table.                                               *)

let has_parallel code =
  let n = Wam.Code.length code in
  let rec go i =
    i < n
    &&
    match Wam.Code.fetch code i with
    | Wam.Instr.Alloc_parcall _ -> true
    | _ -> go (i + 1)
  in
  go 0

let build ?patterns (prog : Wam.Program.t) =
  let code = prog.Wam.Program.code in
  let symbols = prog.Wam.Program.symbols in
  let entries = ref [] in
  Wam.Code.iter_entries code (fun fid addr -> entries := (addr, fid) :: !entries);
  let entries =
    Array.of_list (List.sort (fun (a, _) (b, _) -> compare a b) !entries)
  in
  let parallel = has_parallel code in
  let preds = Hashtbl.create 64 in
  Array.iteri
    (fun i (entry, fid) ->
      let stop =
        if i + 1 < Array.length entries then fst entries.(i + 1)
        else Wam.Code.length code
      in
      let name = Wam.Symbols.functor_name symbols fid in
      let arity = Wam.Symbols.functor_arity symbols fid in
      let pattern =
        match patterns with
        | None -> None
        | Some pats -> (
          match Prolog.Abspat.find pats ~name ~arity with
          | Some e -> Some e.Prolog.Abspat.call.Prolog.Abspat.args
          | None -> None)
      in
      let own, callees, fails =
        analyze_range code ~parallel ~fid ~arity ~entry ~stop pattern
      in
      Hashtbl.replace preds fid
        { fid; name; arity; entry; stop; own; closure = Summary.copy own;
          callees; fails })
    entries;
  (* bottom-up order: Depgraph topological order of the source
     database, then the query and anything left over *)
  let order = ref [] in
  let seen = Hashtbl.create 64 in
  let push fid =
    if Hashtbl.mem preds fid && not (Hashtbl.mem seen fid) then begin
      Hashtbl.replace seen fid ();
      order := fid :: !order
    end
  in
  let dg = Analysis.Depgraph.build prog.Wam.Program.db in
  List.iter
    (fun (name, arity) -> push (Wam.Symbols.functor_ symbols name arity))
    (Analysis.Depgraph.topo_order dg);
  push prog.Wam.Program.query_fid;
  Array.iter (fun (_, fid) -> push fid) entries;
  let order = List.rev !order in
  (* closure fixpoint: one pass suffices outside SCCs; iterate until
     stable for mutual recursion *)
  let step fid =
    let p = Hashtbl.find preds fid in
    let s =
      List.fold_left
        (fun acc c ->
          match Hashtbl.find_opt preds c with
          | Some cp -> Summary.join acc cp.closure
          | None -> { acc with Summary.closed = false })
        (Summary.copy p.own) p.callees
    in
    let changed = not (Summary.equal s p.closure) in
    if changed then p.closure <- s;
    changed
  in
  let iterations, _ = Analysis.Depgraph.fixpoint order step in
  let program =
    Hashtbl.fold (fun _ p acc -> Summary.join acc p.closure) preds
      (Summary.empty ())
  in
  {
    preds;
    order;
    parallel;
    symbols;
    program;
    iterations;
  }

(* ------------------------------------------------------------------ *)
(* Predicted shareability tags.                                       *)

(* A sequential program shares nothing; a parallel one shares exactly
   the areas the paper's Table 1 classes Global, restricted to areas
   the program can actually touch — plus the parent-private parcall
   words, which Table 1 classes Local but which a stealing PE reads
   during check-in, so under the steal protocol they are shared. *)
let predicted_locality t (area : Trace.Area.t) : Trace.Area.locality =
  if not t.parallel then Trace.Area.Local
  else if area = Trace.Area.Code then Trace.Area.Global
  else if Summary.get t.program area = Mode.Nil then Trace.Area.Local
  else if area = Trace.Area.Parcall_local then Trace.Area.Global
  else Trace.Area.locality area

let pp fmt t =
  List.iter
    (fun fid ->
      match find t fid with
      | None -> ()
      | Some p ->
        Format.fprintf fmt "%-20s own: %a@." (spec t fid) Summary.pp p.own;
        if not (Summary.equal p.own p.closure) then
          Format.fprintf fmt "%-20s all: %a@." "" Summary.pp p.closure)
    t.order
