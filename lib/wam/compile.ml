(* Prolog-to-WAM compiler.

   Implements the standard WAM compilation scheme: chunk-based
   permanent-variable analysis (head and first goal share a chunk),
   argument/temporary X-register allocation with scratch reuse for
   structure building, first-argument indexing (switch_on_term plus
   constant/structure sub-switches and try/retry/trust chains), last
   call optimization, neck and deep cut, and unsafe-value handling
   (conservative: put_unsafe_value for any permanent variable whose
   first occurrence was not a top-level head argument, and
   unify_local_value for all repeat variable occurrences inside
   structures).

   RAP-WAM extensions: a CGE item compiles to its run-time checks
   (jumping to a compiled sequential version when they fail), an
   alloc_parcall, one put+push_goal sequence per arm, and a par_join.
   Arms that are builtins get a synthetic one-instruction predicate so
   goal frames always carry a real code entry. *)

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* An integer constant must survive the cell encoding. *)
let int_const n =
  if not (Cell.fits n) then error "integer %d does not fit a cell" n;
  n

(* ------------------------------------------------------------------ *)
(* Variable classification.                                           *)

type var_info = {
  mutable occurrences : int;
  mutable chunks : int list; (* chunk ids, most recent first *)
  mutable head_arg : bool; (* first occurrence is a top-level head arg *)
  mutable reg : Instr.reg option;
}

type clause_ctx = {
  symbols : Symbols.t;
  code : Code.t;
  vars : (string, var_info) Hashtbl.t;
  mutable next_temp : int;
  mutable free_temps : int list; (* recycled structure-building scratch *)
  mutable cut_level : int option; (* Y register holding B0 *)
}

let var_info ctx v =
  match Hashtbl.find_opt ctx.vars v with
  | Some info -> info
  | None ->
    let info = { occurrences = 0; chunks = []; head_arg = false; reg = None } in
    Hashtbl.add ctx.vars v info;
    info

let note_var ctx v ~chunk ~head_arg =
  let info = var_info ctx v in
  if info.occurrences = 0 && head_arg then info.head_arg <- true;
  info.occurrences <- info.occurrences + 1;
  match info.chunks with
  | c :: _ when c = chunk -> ()
  | _ -> info.chunks <- chunk :: info.chunks

let rec note_term ctx ~chunk ~top t =
  match t with
  | Prolog.Term.Var v -> note_var ctx v ~chunk ~head_arg:top
  | Prolog.Term.Atom _ | Prolog.Term.Int _ -> ()
  | Prolog.Term.Struct (_, args) ->
    List.iter (note_term ctx ~chunk ~top:false) args

(* ------------------------------------------------------------------ *)
(* Goal shapes.                                                       *)

let goal_parts = function
  | Prolog.Term.Atom name -> (name, [])
  | Prolog.Term.Struct (name, args) -> (name, args)
  | (Prolog.Term.Int _ | Prolog.Term.Var _) as t ->
    error "goal is not callable: %s" (Prolog.Pretty.to_string t)

type goal_kind =
  | G_cut
  | G_true
  | G_builtin of Builtin.t
  | G_user (* user-defined predicate call *)

let goal_kind db g =
  let name, args = goal_parts g in
  let arity = List.length args in
  match name with
  | "!" when arity = 0 -> G_cut
  | "true" when arity = 0 -> G_true
  | _ ->
    if Prolog.Database.has_predicate db (name, arity) then G_user
    else begin
      match Builtin.lookup name arity with
      | Some b -> G_builtin b
      | None -> G_user (* unknown predicate: fails at run time *)
    end

(* ------------------------------------------------------------------ *)
(* Binding-certified specialization (lib/bindan supplies the plan).

   The binding analysis proves per-argument instantiation facts about
   every call to a predicate: that an argument is always a
   first-occurrence free variable whose binding is unconditional
   (no choice point or parcall redo can ever untrail it), or that it
   is always bound rigid with dereference depth 0.  The compiler sets
   the certificate as an attribute of the head get ({!Instr.cert}, or
   the [uncond] flag of the atomic gets), of a certified builtin, and
   of a certified first-occurrence argument put.  A plan only ever
   changes attributes, so a plan-compiled code area equals the
   baseline once {!Instr.plain} is applied — the trace-replay oracle
   in lib/bindan diffs the two arrays to find the certified sites and
   audits each against a baseline trace. *)
type arg_cert =
  | Cert_none
  | Cert_rigid  (** always bound, deref depth 0 at the head *)
  | Cert_uninit  (** always free, binding certified unconditional *)
  | Cert_value_nt
      (** repeat-variable argument whose head unification makes only
          certified-unconditional bindings: [get_value] runs with the
          trail test and write elided *)

type bind_plan = {
  bind_head : pred:string * int -> arg:int -> arg_cert;
  bind_uninit : callee:string * int -> arg:int -> bool;
  bind_builtin : pred:string * int -> Builtin.t -> bool;
}

let arg_cert bind ~pred ~arg =
  match bind with Some p -> p.bind_head ~pred ~arg | None -> Cert_none

let no_uninit _ = false

let uninit_of bind callee : int -> bool =
  match bind with
  | Some p -> fun arg -> p.bind_uninit ~callee ~arg
  | None -> no_uninit

(* ------------------------------------------------------------------ *)
(* Register allocation.                                               *)

let alloc_temp ctx =
  match ctx.free_temps with
  | t :: rest ->
    ctx.free_temps <- rest;
    t
  | [] ->
    let t = ctx.next_temp in
    ctx.next_temp <- t + 1;
    t

let free_temp ctx t = ctx.free_temps <- t :: ctx.free_temps

(* Assign Y registers to permanent variables (order of first
   occurrence) and dedicated X registers to the temporaries.  Returns
   the permanent count. *)
let assign_registers ctx order =
  let n_perm = ref (match ctx.cut_level with Some _ -> 1 | None -> 0) in
  List.iter
    (fun v ->
      let info = Hashtbl.find ctx.vars v in
      if info.reg = None then
        if List.length info.chunks > 1 then begin
          info.reg <- Some (Instr.Y !n_perm);
          incr n_perm
        end
        else info.reg <- Some (Instr.X (alloc_temp ctx)))
    order;
  !n_perm

let reg_of ctx v =
  match (Hashtbl.find ctx.vars v).reg with
  | Some r -> r
  | None -> error "variable %s has no register" v

let is_void ctx v = (Hashtbl.find ctx.vars v).occurrences = 1

(* ------------------------------------------------------------------ *)
(* Head compilation.                                                  *)

(* Structures nested inside head arguments are processed breadth-first
   through a queue of (temp register, term) pairs, as in the WAM.
   Binding certificates apply only to the top-level argument
   registers: the nested-structure drain reads cells the clause built
   itself, so it always uses the baseline instructions. *)
let compile_head ctx ?bind head =
  let emit i = ignore (Code.emit ctx.code i) in
  let seen = Hashtbl.create 16 in
  let first_occ v =
    if Hashtbl.mem seen v then false
    else begin
      Hashtbl.add seen v ();
      true
    end
  in
  let queue = Queue.create () in
  let unify_arg t =
    match t with
    | Prolog.Term.Var v ->
      if is_void ctx v then emit (Instr.Unify_void 1)
      else if first_occ v then emit (Instr.Unify_variable (reg_of ctx v))
      else emit (Instr.Unify_local_value (reg_of ctx v))
    | Prolog.Term.Int n -> emit (Instr.Unify_integer (int_const n))
    | Prolog.Term.Atom "[]" -> emit Instr.Unify_nil
    | Prolog.Term.Atom a ->
      emit (Instr.Unify_constant (Symbols.atom ctx.symbols a))
    | Prolog.Term.Struct _ ->
      let t_reg = alloc_temp ctx in
      emit (Instr.Unify_variable (Instr.X t_reg));
      Queue.add (t_reg, t) queue
  in
  let get_term ?(spec = Cert_none) ~into t =
    (* [Uncond] means a certified-free argument on the term gets but
       certified-unconditional bindings on get_value *)
    let uncond = spec = Cert_uninit in
    let term_cert =
      match spec with
      | Cert_rigid -> Instr.Rigid
      | Cert_uninit -> Instr.Uncond
      | Cert_none | Cert_value_nt -> Instr.Plain
    in
    match t with
    | Prolog.Term.Var v ->
      (* A void head argument needs no instruction. *)
      if not (is_void ctx v) then
        if first_occ v then emit (Instr.Get_variable (reg_of ctx v, into))
        else
          let value_cert =
            match spec with
            | Cert_rigid -> Instr.Rigid
            | Cert_value_nt -> Instr.Uncond
            | Cert_none | Cert_uninit -> Instr.Plain
          in
          emit (Instr.Get_value (reg_of ctx v, into, value_cert))
    | Prolog.Term.Int n -> emit (Instr.Get_integer (int_const n, into, uncond))
    | Prolog.Term.Atom "[]" -> emit (Instr.Get_nil (into, uncond))
    | Prolog.Term.Atom a ->
      emit (Instr.Get_constant (Symbols.atom ctx.symbols a, into, uncond))
    | Prolog.Term.Struct (".", [ h; tl ]) ->
      emit (Instr.Get_list (into, term_cert));
      unify_arg h;
      unify_arg tl
    | Prolog.Term.Struct (f, args) ->
      let fid = Symbols.functor_ ctx.symbols f (List.length args) in
      emit (Instr.Get_structure (fid, into, term_cert));
      List.iter unify_arg args
  in
  let name, head_args = goal_parts head in
  let pred = (name, List.length head_args) in
  List.iteri
    (fun i arg ->
      get_term ~spec:(arg_cert bind ~pred ~arg:(i + 1)) ~into:(i + 1) arg)
    head_args;
  (* Drain nested structures. *)
  let rec drain () =
    if not (Queue.is_empty queue) then begin
      let t_reg, t = Queue.take queue in
      get_term ~into:t_reg t;
      free_temp ctx t_reg;
      drain ()
    end
  in
  drain ()

(* ------------------------------------------------------------------ *)
(* Body argument loading (put group).                                 *)

(* Build a structure bottom-up into a register; returns the register
   holding it plus the scratch to release afterwards.  A child's
   scratch register is consumed by the parent's unify instruction, so
   it is released as soon as that instruction is emitted: live scratch
   stays proportional to the term's depth, not its size. *)
let rec build_struct ctx seen t =
  let emit i = ignore (Code.emit ctx.code i) in
  match t with
  | Prolog.Term.Struct (f, args) ->
    let prepared = List.map (prepare_unify_arg ctx seen) args in
    let dest = alloc_temp ctx in
    (match t with
    | Prolog.Term.Struct (".", [ _; _ ]) -> emit (Instr.Put_list dest)
    | _ ->
      emit
        (Instr.Put_structure
           (Symbols.functor_ ctx.symbols f (List.length args), dest)));
    List.iter
      (fun (instr, sub_scratch) ->
        emit instr;
        List.iter (free_temp ctx) sub_scratch)
      prepared;
    (dest, [ dest ])
  | Prolog.Term.Var _ | Prolog.Term.Atom _ | Prolog.Term.Int _ ->
    error "build_struct: not a structure"

(* Decide the unify_* instruction for one argument of a structure being
   built; nested structures are built first (bottom-up). *)
and prepare_unify_arg ctx seen t =
  match t with
  | Prolog.Term.Var v ->
    if is_void ctx v then (Instr.Unify_void 1, [])
    else if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      (Instr.Unify_variable (reg_of ctx v), [])
    end
    else (Instr.Unify_local_value (reg_of ctx v), [])
  | Prolog.Term.Int n -> (Instr.Unify_integer (int_const n), [])
  | Prolog.Term.Atom "[]" -> (Instr.Unify_nil, [])
  | Prolog.Term.Atom a ->
    (Instr.Unify_constant (Symbols.atom ctx.symbols a), [])
  | Prolog.Term.Struct _ ->
    let reg, scratch = build_struct ctx seen t in
    (Instr.Unify_value (Instr.X reg), scratch)

(* [put_args ctx seen ~last args] loads [args] into A1..An.  [seen]
   tracks variables already materialized in this clause (head pass plus
   previous goals).  [last] switches permanent-variable puts to
   put_unsafe_value when the variable's first occurrence was not a
   top-level head argument.  [uninit] marks argument positions the
   binding plan certifies as uninitialized output of the callee: a
   first-occurrence variable there is created by a [put_variable]
   with the [uncond] flag (untraced self-reference). *)
let put_args ctx seen ?(uninit = no_uninit) ~last args =
  let emit i = ignore (Code.emit ctx.code i) in
  let put_one i t =
    let into = i + 1 in
    match t with
    | Prolog.Term.Var v ->
      let info = Hashtbl.find ctx.vars v in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        emit (Instr.Put_variable (reg_of ctx v, into, uninit into))
      end
      else begin
        match reg_of ctx v with
        | Instr.Y y when last && not info.head_arg ->
          emit (Instr.Put_unsafe_value (y, into))
        | reg -> emit (Instr.Put_value (reg, into))
      end
    | Prolog.Term.Int n -> emit (Instr.Put_integer (int_const n, into))
    | Prolog.Term.Atom "[]" -> emit (Instr.Put_nil into)
    | Prolog.Term.Atom a ->
      emit (Instr.Put_constant (Symbols.atom ctx.symbols a, into))
    | Prolog.Term.Struct _ ->
      let reg, scratch = build_struct ctx seen t in
      emit (Instr.Put_value (Instr.X reg, into));
      List.iter (free_temp ctx) scratch
  in
  List.iteri put_one args

(* ------------------------------------------------------------------ *)
(* Clause compilation.                                                *)

(* The builtin arms met so far and the arms whose predicates are still
   to be emitted (fid, builtin, arity; newest first).  Immutable, so a
   database image can carry it to every query compiled on top of it;
   compilation threads it through a ref. *)
type arms = { arm_count : int; arm_pending : (int * Builtin.t * int) list }

(* A builtin appearing as a parallel arm needs a real code entry for
   its goal frame; the one-instruction predicate is emitted after every
   other predicate (entries resolve at run time). *)
let synth_builtin_pred ctx alloc b arity =
  let n = !alloc.arm_count + 1 in
  let fid = Symbols.functor_ ctx.symbols (Printf.sprintf "$builtin_arm_%d" n) arity in
  alloc := { arm_count = n; arm_pending = (fid, b, arity) :: !alloc.arm_pending };
  fid

(* Count of body items that transfer control to user code. *)
let body_needs_env items ~has_deep_cut ~n_perm db =
  if n_perm > 0 || has_deep_cut then true
  else begin
    let rec scan = function
      | [] -> false
      | [ Prolog.Cge.Lit g ] -> begin
        (* A user call in final position runs under LCO: no env needed. *)
        match goal_kind db g with
        | G_user -> false
        | G_cut | G_true | G_builtin _ -> false
      end
      | [ Prolog.Cge.Par _ ] -> true
      | item :: rest -> begin
        match item with
        | Prolog.Cge.Par _ -> true
        | Prolog.Cge.Lit g -> begin
          match goal_kind db g with
          | G_user -> true (* non-final call: CP must survive *)
          | G_cut | G_true | G_builtin _ -> scan rest
        end
      end
    in
    scan items
  end

let check_var_reg ctx t =
  match t with
  | Prolog.Term.Var v -> reg_of ctx v
  | Prolog.Term.Atom _ | Prolog.Term.Int _ | Prolog.Term.Struct _ ->
    error "CGE check argument must be a variable: %s"
      (Prolog.Pretty.to_string t)

(* Compile one clause; returns its start address.  With
   [parallel = false] every CGE degrades to its sequential reading
   (plain calls in textual order, no checks): this is the WAM-baseline
   compilation mode. *)
let compile_clause ~parallel ?bind symbols code db alloc
    (clause : Prolog.Database.clause) =
  let ctx =
    {
      symbols;
      code;
      vars = Hashtbl.create 16;
      next_temp = 0;
      free_temps = [];
      cut_level = None;
    }
  in
  let emit i = ignore (Code.emit code i) in
  let { Prolog.Database.head; body } = clause in
  (* The predicate this clause belongs to, for plan lookups. *)
  let clause_pred =
    let name, args = goal_parts head in
    (name, List.length args)
  in
  let body =
    if parallel then body
    else
      List.concat_map
        (function
          | Prolog.Cge.Par { arms; _ } ->
            List.map (fun arm -> Prolog.Cge.Lit arm) arms
          | Prolog.Cge.Lit _ as item -> [ item ])
        body
  in
  (* --- analysis ---------------------------------------------------- *)
  let _, head_args = goal_parts head in
  let max_arity =
    List.fold_left
      (fun m item ->
        match item with
        | Prolog.Cge.Lit g -> max m (List.length (snd (goal_parts g)))
        | Prolog.Cge.Par { arms; _ } ->
          List.fold_left
            (fun m g -> max m (List.length (snd (goal_parts g))))
            m arms)
      (List.length head_args) body
  in
  ctx.next_temp <- max_arity + 1;
  (* Chunks: a chunk ends with each user call (or parcall); the call's
     own arguments belong to the chunk it terminates.  Head and inline
     builtins before the first call share chunk 0. *)
  let chunk = ref 0 in
  let started_calls = ref 0 in
  List.iter (note_term ctx ~chunk:0 ~top:true) head_args;
  let has_deep_cut = ref false in
  List.iter
    (fun item ->
      (match item with
      | Prolog.Cge.Lit g -> begin
        match goal_kind db g with
        | G_cut -> if !started_calls > 0 then has_deep_cut := true
        | G_true -> ()
        | G_builtin _ ->
          List.iter (note_term ctx ~chunk:!chunk ~top:false)
            (snd (goal_parts g))
        | G_user ->
          incr started_calls;
          List.iter (note_term ctx ~chunk:!chunk ~top:false)
            (snd (goal_parts g));
          incr chunk
      end
      | Prolog.Cge.Par { checks; arms } ->
        incr started_calls;
        List.iter
          (fun check ->
            match check with
            | Prolog.Cge.Ground x -> note_term ctx ~chunk:!chunk ~top:false x
            | Prolog.Cge.Indep (x, y) ->
              note_term ctx ~chunk:!chunk ~top:false x;
              note_term ctx ~chunk:!chunk ~top:false y
            | Prolog.Cge.Size_ge (x, _) ->
              note_term ctx ~chunk:!chunk ~top:false x)
          checks;
        (* With run-time checks the compiler also emits a sequential
           fallback in which the arms are separate calls, so each arm
           must be its own chunk; an unconditional CGE reads all arm
           arguments before any control transfer (one chunk). *)
        if checks = [] then begin
          List.iter
            (fun arm ->
              List.iter (note_term ctx ~chunk:!chunk ~top:false)
                (snd (goal_parts arm)))
            arms;
          incr chunk
        end
        else
          List.iter
            (fun arm ->
              List.iter (note_term ctx ~chunk:!chunk ~top:false)
                (snd (goal_parts arm));
              incr chunk)
            arms))
    body;
  if !has_deep_cut then ctx.cut_level <- Some 0;
  (* Register assignment in order of first occurrence. *)
  let order =
    let seen = Hashtbl.create 16 in
    let out = ref [] in
    let rec collect t =
      match t with
      | Prolog.Term.Var v ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          out := v :: !out
        end
      | Prolog.Term.Atom _ | Prolog.Term.Int _ -> ()
      | Prolog.Term.Struct (_, args) -> List.iter collect args
    in
    List.iter collect head_args;
    List.iter
      (fun item ->
        match item with
        | Prolog.Cge.Lit g -> List.iter collect (snd (goal_parts g))
        | Prolog.Cge.Par { checks; arms } ->
          List.iter
            (function
              | Prolog.Cge.Ground x -> collect x
              | Prolog.Cge.Indep (x, y) ->
                collect x;
                collect y
              | Prolog.Cge.Size_ge (x, _) -> collect x)
            checks;
          List.iter (fun arm -> List.iter collect (snd (goal_parts arm))) arms)
      body;
    List.rev !out
  in
  let n_perm = assign_registers ctx order in
  let needs_env =
    body_needs_env body ~has_deep_cut:!has_deep_cut ~n_perm db
  in
  (* --- emission ---------------------------------------------------- *)
  let start = Code.here code in
  if needs_env then emit (Instr.Allocate n_perm);
  (match ctx.cut_level with
  | Some y -> emit (Instr.Get_level y)
  | None -> ());
  let seen = Hashtbl.create 16 in
  (* Head variables that received registers are now materialized. *)
  let rec mark_seen t =
    match t with
    | Prolog.Term.Var v -> if not (is_void ctx v) then Hashtbl.replace seen v ()
    | Prolog.Term.Atom _ | Prolog.Term.Int _ -> ()
    | Prolog.Term.Struct (_, args) -> List.iter mark_seen args
  in
  List.iter mark_seen head_args;
  compile_head ctx ?bind head;
  (* Body items. *)
  let n_items = List.length body in
  let calls_emitted = ref 0 in
  let rec emit_items idx items =
    match items with
    | [] ->
      if needs_env then emit Instr.Deallocate;
      emit Instr.Proceed
    | item :: rest -> begin
      let is_last = idx = n_items - 1 in
      match item with
      | Prolog.Cge.Lit g -> begin
        let name, args = goal_parts g in
        let arity = List.length args in
        match goal_kind db g with
        | G_true -> emit_items (idx + 1) rest
        | G_cut ->
          (if !calls_emitted = 0 then emit Instr.Neck_cut
           else
             match ctx.cut_level with
             | Some y -> emit (Instr.Cut_to y)
             | None -> error "deep cut without saved level");
          emit_items (idx + 1) rest
        | G_builtin b ->
          put_args ctx seen ~last:is_last args;
          let nt =
            match bind with
            | Some p -> p.bind_builtin ~pred:clause_pred b
            | None -> false
          in
          emit (Instr.Builtin (b, arity, nt));
          emit_items (idx + 1) rest
        | G_user ->
          let fid = Symbols.functor_ ctx.symbols name arity in
          put_args ctx seen ~uninit:(uninit_of bind (name, arity))
            ~last:is_last args;
          if is_last then begin
            if needs_env then emit Instr.Deallocate;
            emit (Instr.Execute fid)
          end
          else begin
            emit (Instr.Call fid);
            incr calls_emitted;
            emit_items (idx + 1) rest
          end
      end
      | Prolog.Cge.Par { checks; arms } ->
        let k = List.length arms in
        (* Run-time checks jump to the sequential version on failure.
           A check variable whose first occurrence is the check itself
           must be materialized first (an unbound variable is trivially
           non-ground / independent, but the register must hold a real
           cell, not stack garbage). *)
        let materialize t =
          match t with
          | Prolog.Term.Var v when not (Hashtbl.mem seen v) ->
            Hashtbl.replace seen v ();
            let a = alloc_temp ctx in
            emit (Instr.Put_variable (reg_of ctx v, a, false));
            free_temp ctx a
          | Prolog.Term.Var _ | Prolog.Term.Atom _ | Prolog.Term.Int _
          | Prolog.Term.Struct _ ->
            ()
        in
        List.iter
          (fun check ->
            match check with
            | Prolog.Cge.Ground x -> materialize x
            | Prolog.Cge.Indep (x, y) ->
              materialize x;
              materialize y
            | Prolog.Cge.Size_ge (x, _) -> materialize x)
          checks;
        let check_patch_addrs =
          List.map
            (fun check ->
              match check with
              | Prolog.Cge.Ground x ->
                Code.emit code (Instr.Check_ground (check_var_reg ctx x, -1))
              | Prolog.Cge.Indep (x, y) ->
                Code.emit code
                  (Instr.Check_indep
                     (check_var_reg ctx x, check_var_reg ctx y, -1))
              | Prolog.Cge.Size_ge (x, k) ->
                Code.emit code
                  (Instr.Check_size (check_var_reg ctx x, k, -1)))
            checks
        in
        (* Both branches (parallel and sequential fallback) must
           materialize the variables first occurring inside this item,
           so the fallback compiles against a snapshot of [seen]. *)
        let seen_before = Hashtbl.copy seen in
        (* The parent pushes arms 2..k for other PEs (and itself) and
           executes the first arm inline -- the RAP-WAM scheme, which
           keeps 1-PE behaviour close to the sequential WAM. *)
        let alloc_addr = Code.emit code (Instr.Alloc_parcall (k - 1, -1)) in
        let inline_arm, pushed_arms =
          match arms with
          | inline :: rest -> (inline, rest)
          | [] -> error "empty parallel conjunction"
        in
        List.iteri
          (fun slot arm ->
            let name, args = goal_parts arm in
            let arity = List.length args in
            let fid, uninit =
              match goal_kind db arm with
              | G_user ->
                ( Symbols.functor_ ctx.symbols name arity,
                  uninit_of bind (name, arity) )
              | G_builtin b ->
                (synth_builtin_pred ctx alloc b arity, no_uninit)
              | G_cut | G_true ->
                error "cut/true cannot be a parallel goal"
            in
            put_args ctx seen ~uninit ~last:false args;
            emit (Instr.Push_goal (slot, fid, arity)))
          pushed_arms;
        (let name, args = goal_parts inline_arm in
         let arity = List.length args in
         match goal_kind db inline_arm with
         | G_builtin b ->
           put_args ctx seen ~last:false args;
           emit (Instr.Builtin (b, arity, false))
         | G_user ->
           let fid = Symbols.functor_ ctx.symbols name arity in
           put_args ctx seen ~uninit:(uninit_of bind (name, arity))
             ~last:false args;
           emit (Instr.Call fid)
         | G_cut | G_true -> error "cut/true cannot be a parallel goal");
        let join = Code.emit code Instr.Par_join in
        Code.patch code alloc_addr (Instr.Alloc_parcall (k - 1, join));
        incr calls_emitted;
        if checks = [] then emit_items (idx + 1) rest
        else begin
          (* jump over the sequential fallback *)
          let jump_addr = Code.emit code (Instr.Jump (-1)) in
          let seq_start = Code.here code in
          List.iter2
            (fun check patch_addr ->
              match (check, Code.fetch code patch_addr) with
              | Prolog.Cge.Ground _, Instr.Check_ground (r, _) ->
                Code.patch code patch_addr (Instr.Check_ground (r, seq_start))
              | Prolog.Cge.Indep _, Instr.Check_indep (r1, r2, _) ->
                Code.patch code patch_addr
                  (Instr.Check_indep (r1, r2, seq_start))
              | Prolog.Cge.Size_ge _, Instr.Check_size (r, k, _) ->
                Code.patch code patch_addr (Instr.Check_size (r, k, seq_start))
              | _, _ -> error "check backpatch mismatch")
            checks check_patch_addrs;
          (* Sequential fallback: plain calls in textual order,
             compiled against the pre-parcall [seen] snapshot. *)
          List.iter
            (fun arm ->
              let name, args = goal_parts arm in
              let arity = List.length args in
              match goal_kind db arm with
              | G_builtin b ->
                put_args ctx seen_before ~last:false args;
                emit (Instr.Builtin (b, arity, false))
              | G_user ->
                let fid = Symbols.functor_ ctx.symbols name arity in
                put_args ctx seen_before
                  ~uninit:(uninit_of bind (name, arity)) ~last:false args;
                emit (Instr.Call fid)
              | G_cut | G_true -> error "cut/true cannot be a parallel goal")
            arms;
          let after = Code.emit code (Instr.Jump (-1)) in
          ignore after;
          let cont = Code.here code in
          Code.patch code jump_addr (Instr.Jump cont);
          Code.patch code after (Instr.Jump cont);
          emit_items (idx + 1) rest
        end
    end
  in
  emit_items 0 body;
  start

(* ------------------------------------------------------------------ *)
(* Predicate compilation with first-argument indexing.                *)

(* Determinacy-driven chain elision (lib/detan supplies the plan).

   A chain the plan certifies is emitted with the [Shallow] chain
   attribute: the machine keeps a register-resident shallow frame
   instead of pushing a choice point, and discards the remaining
   alternatives at the clause's first committing instruction (call,
   proceed, neck_cut, parcall...).  That is sound only when the
   certificate holds -- every non-last alternative either leads with a
   cut or is mutually exclusive with all later alternatives -- which
   is exactly what [det_certify] is asked to prove; the compiler
   trusts it blindly, so the dynamic oracle in lib/detan exists to
   audit the claim against real traces.  [det_dead_var] additionally
   prunes the variable-dispatch chain of switch_on_term when the
   analysis proves the first argument is always instantiated at call
   time.  [det_orphan_sabotage] deliberately mis-emits certified
   chains headed by a shallow retry (no try): the seeded defect the
   wamlint orphan-chain rule must catch. *)
type det_plan = {
  det_certify :
    db:Prolog.Database.t ->
    pred:string * int ->
    bucket:string ->
    Prolog.Database.clause list ->
    bool;
  det_dead_var : string * int -> bool;
  det_orphan_sabotage : bool;
}

(* One emitted try/retry/trust chain (deep or shallow), for the elision stats
   and the trace-replay oracle: [ci_clauses] are indices into the
   predicate's clause list, in chain order, so a later analysis can
   re-derive the certificate for the exact alternatives emitted. *)
type chain_info = {
  ci_pred : string * int;
  ci_bucket : string;  (** "seq" | "var" | "lis" | "con" | "int" | "str" | "default" *)
  ci_start : int;  (** address of the try *)
  ci_alts : int;
  ci_det : bool;
  ci_clauses : int list;
}

type first_arg = FA_var | FA_con of int | FA_int of int | FA_lis | FA_str of int

let first_arg_of symbols (clause : Prolog.Database.clause) =
  match clause.head with
  | Prolog.Term.Atom _ -> FA_var
  | Prolog.Term.Struct (_, arg :: _) -> begin
    match arg with
    | Prolog.Term.Var _ -> FA_var
    | Prolog.Term.Atom a -> FA_con (Symbols.atom symbols a)
    | Prolog.Term.Int n -> FA_int n
    | Prolog.Term.Struct (".", [ _; _ ]) -> FA_lis
    | Prolog.Term.Struct (f, args) ->
      FA_str (Symbols.functor_ symbols f (List.length args))
  end
  | Prolog.Term.Struct (_, []) | Prolog.Term.Int _ | Prolog.Term.Var _ ->
    FA_var

(* Chain instruction for position [i] of [n] alternatives.  A det
   chain keeps the frame in registers; [sabotage] mis-heads it with a
   retry (seeded defect for the orphan-chain lint). *)
let chain_instr ~det ~sabotage i n target =
  let chain = if det then Instr.Shallow else Instr.Deep in
  if i = 0 && not (det && sabotage) then Instr.Try (target, chain)
  else if i = n - 1 then Instr.Trust (target, chain)
  else Instr.Retry (target, chain)

(* Emit a try/retry/trust chain over clause addresses.  A single
   address needs no chain. *)
let emit_chain ?(det = false) ?(sabotage = false) code addrs =
  match addrs with
  | [] -> -1
  | [ a ] -> a
  | addrs ->
    let start = Code.here code in
    let n = List.length addrs in
    List.iteri
      (fun i a -> ignore (Code.emit code (chain_instr ~det ~sabotage i n a)))
      addrs;
    start

let compile_predicate ~parallel ?det ?bind ?chains symbols code db alloc key =
  let clauses = Prolog.Database.clauses db key in
  let name, arity = key in
  let fid = Symbols.functor_ symbols name arity in
  (* Should this chain of alternatives run choice-point-free?  The
     plan sees the exact clauses in chain order; shallow frames hold
     at most 255 saved argument registers. *)
  let certify ~bucket cls =
    match det with
    | Some plan when List.length cls > 1 && arity < 256 ->
      plan.det_certify ~db ~pred:key ~bucket (List.map snd cls)
    | Some _ | None -> false
  in
  let sabotage =
    match det with Some p -> p.det_orphan_sabotage | None -> false
  in
  let log_chain ~bucket ~start ~is_det cls =
    match chains with
    | Some r when List.length cls > 1 ->
      r :=
        {
          ci_pred = key;
          ci_bucket = bucket;
          ci_start = start;
          ci_alts = List.length cls;
          ci_det = is_det;
          ci_clauses = List.map fst cls;
        }
        :: !r
    | Some _ | None -> ()
  in
  match clauses with
  | [] -> ()
  | [ clause ] ->
    let addr = compile_clause ~parallel ?bind symbols code db alloc clause in
    Code.set_entry code fid addr
  | clauses ->
    let fas = List.map (first_arg_of symbols) clauses in
    let indexable =
      arity > 0 && List.exists (fun fa -> fa <> FA_var) fas
    in
    if not indexable then begin
      (* Reserve the chain, compile clauses, patch the chain. *)
      let n = List.length clauses in
      let icls = List.mapi (fun i c -> (i, c)) clauses in
      let is_det = certify ~bucket:"seq" icls in
      let entry = Code.here code in
      List.iteri
        (fun i _ ->
          ignore (Code.emit code (chain_instr ~det:is_det ~sabotage i n (-1))))
        clauses;
      let addrs =
        List.map (fun c -> compile_clause ~parallel ?bind symbols code db alloc c) clauses
      in
      List.iteri
        (fun i addr ->
          Code.patch code (entry + i) (chain_instr ~det:is_det ~sabotage i n addr))
        addrs;
      log_chain ~bucket:"seq" ~start:entry ~is_det icls;
      Code.set_entry code fid entry
    end
    else begin
      (* Standard two-level first-argument indexing.  A bucket for a
         key holds, in source order, the clauses whose first head
         argument matches that key plus every variable-headed clause
         (which matches anything); the sub-switch default handles keys
         absent from the table (variable-headed clauses only). *)
      let entry =
        Code.emit code
          (Instr.Switch_on_term
             { var_l = -1; con_l = -1; int_l = -1; lis_l = -1; str_l = -1 })
      in
      let addrs =
        List.map (fun c -> compile_clause ~parallel ?bind symbols code db alloc c) clauses
      in
      let clause_arr = Array.of_list clauses in
      let tagged =
        List.mapi (fun i (fa, a) -> (fa, a, i)) (List.combine fas addrs)
      in
      let bucket pred =
        List.filter_map
          (fun (fa, a, i) -> if fa = FA_var || pred fa then Some (a, i) else None)
          tagged
      in
      (* Emit one (possibly det) chain over bucket members, logging
         the clause indices so the oracle can re-derive the
         certificate against this exact alternative order. *)
      let chain ~bucket:bk members =
        match members with
        | [] -> -1
        | [ (a, _) ] -> a
        | members ->
          let icls = List.map (fun (_, i) -> (i, clause_arr.(i))) members in
          let is_det = certify ~bucket:bk icls in
          let start =
            emit_chain ~det:is_det ~sabotage code (List.map fst members)
          in
          log_chain ~bucket:bk ~start ~is_det icls;
          start
      in
      (* A variable first argument at call time runs all clauses in
         order; when the analysis proves the argument is always bound
         (dead_var) the dispatch target is never taken and we point it
         at fail instead of emitting the chain. *)
      let dead_var =
        match det with Some p -> p.det_dead_var key | None -> false
      in
      let var_l =
        if dead_var then -1
        else chain ~bucket:"var" (List.map (fun (_, a, i) -> (a, i)) tagged)
      in
      let lis_l = chain ~bucket:"lis" (bucket (fun fa -> fa = FA_lis)) in
      (* Distinct keys of one shape, in first-appearance order. *)
      let keys_of extract =
        List.fold_left
          (fun keys (fa, _, _) ->
            match extract fa with
            | Some k when not (List.mem k keys) -> keys @ [ k ]
            | Some _ | None -> keys)
          [] tagged
      in
      (* the default (unknown key) runs the variable-headed clauses *)
      let var_only =
        List.filter_map
          (fun (fa, a, i) -> if fa = FA_var then Some (a, i) else None)
          tagged
      in
      let var_only_l = chain ~bucket:"default" var_only in
      let sub extract instr_of has_any ~bucket:bk =
        if not has_any then
          (* no clause with this shape: unknown keys fall back to the
             variable-headed clauses (possibly fail) *)
          var_only_l
        else begin
          let keys = keys_of extract in
          let groups =
            List.map
              (fun k -> (k, chain ~bucket:bk (bucket (fun fa -> extract fa = Some k))))
              keys
          in
          match groups with
          | [] -> var_only_l
          | [ (_, a) ] when var_only_l = -1 ->
            (* single key, no variable clauses: heads re-verify *)
            a
          | _ :: _ ->
            Code.emit code (instr_of (Array.of_list groups, var_only_l))
        end
      in
      let has shape = List.exists (fun fa -> shape fa) fas in
      let con_l =
        sub
          (function FA_con c -> Some c | FA_var | FA_int _ | FA_lis | FA_str _ -> None)
          (fun (g, d) -> Instr.Switch_on_constant (g, d))
          (has (function FA_con _ -> true | _ -> false))
          ~bucket:"con"
      in
      let int_l =
        sub
          (function FA_int n -> Some n | FA_var | FA_con _ | FA_lis | FA_str _ -> None)
          (fun (g, d) -> Instr.Switch_on_integer (g, d))
          (has (function FA_int _ -> true | _ -> false))
          ~bucket:"int"
      in
      let str_l =
        sub
          (function FA_str f -> Some f | FA_var | FA_con _ | FA_int _ | FA_lis -> None)
          (fun (g, d) -> Instr.Switch_on_structure (g, d))
          (has (function FA_str _ -> true | _ -> false))
          ~bucket:"str"
      in
      let lis_l = if lis_l = -1 then var_only_l else lis_l in
      Code.patch code entry
        (Instr.Switch_on_term { var_l; con_l; int_l; lis_l; str_l });
      Code.set_entry code fid entry
    end

(* ------------------------------------------------------------------ *)

(* Fixed low addresses for the two return points. *)
let halt_addr = 0
let goal_done_addr = 1

let start () =
  let code = Code.create () in
  assert (Code.emit code Instr.Halt_ok = halt_addr);
  assert (Code.emit code Instr.Goal_done = goal_done_addr);
  (code, { arm_count = 0; arm_pending = [] })

let compile_predicates ?(parallel = true) ?det ?bind ?chains symbols code arms
    db keys =
  let alloc = ref arms in
  List.iter
    (fun key -> compile_predicate ~parallel ?det ?bind ?chains symbols code db alloc key)
    keys;
  !alloc

let finish code arms =
  List.iter
    (fun (fid, b, arity) ->
      let addr = Code.here code in
      ignore (Code.emit code (Instr.Builtin (b, arity, false)));
      ignore (Code.emit code Instr.Proceed);
      Code.set_entry code fid addr)
    (List.rev arms.arm_pending)

let compile_db ?parallel symbols db =
  let code, arms = start () in
  finish code
    (compile_predicates ?parallel symbols code arms db
       (Prolog.Database.predicates db));
  code
