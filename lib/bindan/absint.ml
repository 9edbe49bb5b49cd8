(* Static binding & instantiation analysis.

   Certifies three families of facts over the annotated database, the
   global groundness/freeness patterns ({!Prolog.Abspat}) and the
   determinacy-certified dispatch chains of lib/detan:

   - [uninit p j]   -- every call reaches argument [j] of [p] with a
     fresh, unaliased, unbound cell created after every live restore
     point, and [p]'s head writes it before anything reads it.  Drives
     the [Uncond] head gets (deref-free, trail-free bind) and the
     [uncond] [put_variable] at the call sites.
   - [rigid1 p]     -- [p] is first-argument indexed and always called
     with its first argument bound: the switch has already dereferenced
     the register, so the head instruction sees deref depth 0 and
     compiles to the [Rigid] gets.
   - [nt_builtin p b] -- every occurrence of builtin [b] (=/2 or is/2)
     in [p]'s bodies only binds certified-unconditional cells, so the
     occurrence compiles to an [uncond] [builtin] (trailing elided).
   - [value_nt p j] -- in a globally choice-point-free program every
     binding is unconditional (a failed parcall recovery can only
     propagate to total failure, never to a retry that could observe a
     stale cell), so repeat-variable head arguments compile to
     [get_value] with [Uncond].

   Conditionality is a window argument: a binding is unconditional
   when no real choice point and no observable trail floor separates
   the bound cell's creation from the bind.  The window is closed
   clause-locally ("clean" prefixes contain no user calls), across
   calls by the [W] fixpoint (callers pass freshly created cells), and
   across dispatch by detan's chain certificates (shallow frames
   restore elided bindings through [sh_nt_log], deep backtracks reset
   the heap past the cell).  Parallel conjunctions do not dirty a
   prefix: a joined CGE leaves no choice point behind (no parcall
   redo), and a failing one unwinds to a restore point that predates
   the cells the window certifies.

   The query is modelled as a headless clause: its variables are fresh
   at first occurrence and no restore point can predate them. *)

type key = string * int

type weakening = {
  wk_force_uninit : bool;
      (** drop the freeness pattern, [W], dispatch-determinacy and
          indexed-first-argument guards of [uninit] *)
  wk_cond_blind : bool;
      (** treat every site as clean and every dispatch as det *)
  wk_rigid_any : bool;  (** certify rigid without the groundness proof *)
  wk_nt_alias : bool;
      (** any variable side of =/2 counts as a free definition *)
}

let sound =
  {
    wk_force_uninit = false;
    wk_cond_blind = false;
    wk_rigid_any = false;
    wk_nt_alias = false;
  }

(* One call-site argument, classified by where its variable (if any)
   first occurred. *)
type site_kind =
  | S_fresh  (** first occurrence of the variable is this argument *)
  | S_head_top of int  (** first occurrence: caller's head, top of arg i *)
  | S_head_sub of int  (** first occurrence: nested in caller's head arg i *)
  | S_nonvar  (** a non-variable term *)
  | S_dirty  (** aliased in this goal, repeated head variable, or
                 flowing out of an earlier body goal *)

type site = {
  st_caller : key;
  st_kind : site_kind;
  st_clean : bool;  (** no user call in the body prefix *)
}

(* Head-argument shape of one clause, for the [uninit] rule. *)
type shape =
  | Sh_nonvar  (** compiles to an [Uncond] get under the certificate *)
  | Sh_pass of (key * int) * bool
      (** single-use head variable handed to exactly one callee
          argument (clean?): certified iff that target is [uninit] *)
  | Sh_refuse

type bocc = {
  bo_owner : key;
  bo_b : Wam.Builtin.t;
  bo_sides : (site_kind * bool) array;  (** per argument: class, clean *)
}

type result = {
  preds : key list;
  global_cp_free : bool;
  ddet : key -> bool;
  indexable : key -> bool;
  gfa : key -> int -> Prolog.Abspat.gfa;
  uninit : key -> int -> bool;
  wfirst : key -> int -> bool;
  rigid1 : key -> bool;
  value_nt : key -> int -> bool;
  nt_builtin : key -> Wam.Builtin.t -> bool;
  facts : Dom.pred_fact list;
  n_sites : int;
  n_boccs : int;
  weakening : weakening;
}

(* ------------------------------------------------------------------ *)
(* Clause scanning.                                                   *)

(* A goal's predicate; a variable or integer goal gets a name no
   predicate has. *)
let goal_key t =
  Option.value (Prolog.Term.functor_of t) ~default:("?bad-goal", 0)

(* Every variable occurrence, left to right (Term.vars deduplicates,
   which would hide aliasing). *)
let term_var_occs t =
  let acc = ref [] in
  let rec go = function
    | Prolog.Term.Var v -> acc := v :: !acc
    | Prolog.Term.Atom _ | Prolog.Term.Int _ -> ()
    | Prolog.Term.Struct (_, args) -> List.iter go args
  in
  go t;
  List.rev !acc

let is_builtin name arity = Wam.Builtin.lookup name arity <> None

type scan = {
  sites : (key * int, site) Hashtbl.t;  (** multi-binding table *)
  shapes : (key * int, shape) Hashtbl.t;  (** one entry per clause *)
  boccs : (key, bocc) Hashtbl.t;
  mutable n_sites : int;
}

let new_scan () =
  { sites = Hashtbl.create 64; shapes = Hashtbl.create 64; boccs = Hashtbl.create 16; n_sites = 0 }

(* Walk one clause: record call-site classifications, builtin
   occurrences and head-argument shapes.  [head = None] scans the
   query as a headless clause. *)
let scan_clause sc ~owner head body =
  let first : (string, site_kind) Hashtbl.t = Hashtbl.create 16 in
  let head_repeat : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let total : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let bump_total v =
    Hashtbl.replace total v (1 + Option.value ~default:0 (Hashtbl.find_opt total v))
  in
  let head_args = match head with Some h -> Prolog.Term.args h | None -> [] in
  List.iteri
    (fun i arg ->
      let i = i + 1 in
      (match arg with
      | Prolog.Term.Var v ->
        if Hashtbl.mem first v then Hashtbl.replace head_repeat v ()
        else Hashtbl.add first v (S_head_top i)
      | t ->
        List.iter
          (fun v ->
            if Hashtbl.mem first v then Hashtbl.replace head_repeat v ()
            else Hashtbl.add first v (S_head_sub i))
          (term_var_occs t));
      List.iter bump_total (term_var_occs arg))
    head_args;
  (* var -> top-level user-call argument positions it is passed at *)
  let call_sites : (string, (key * int * bool) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let dirty = ref false in
  let classify goal_occ v =
    if goal_occ v > 1 || Hashtbl.mem head_repeat v then S_dirty
    else
      match Hashtbl.find_opt first v with
      | None -> S_fresh
      | Some (S_head_top _ as k) | Some (S_head_sub _ as k) -> k
      | Some _ -> S_dirty
  in
  let mark_seen t =
    List.iter
      (fun v -> if not (Hashtbl.mem first v) then Hashtbl.add first v S_dirty)
      (term_var_occs t)
  in
  let do_goal ~clean t =
    let ((name, arity) as callee) = goal_key t in
    let args = Prolog.Term.args t in
    List.iter bump_total (term_var_occs t);
    let occs = Hashtbl.create 8 in
    List.iter
      (fun v ->
        Hashtbl.replace occs v (1 + Option.value ~default:0 (Hashtbl.find_opt occs v)))
      (term_var_occs t);
    let goal_occ v = Option.value ~default:0 (Hashtbl.find_opt occs v) in
    if name = "!" || name = "true" || name = "fail" then ()
    else if is_builtin name arity then begin
      let sides =
        Array.of_list
          (List.map
             (fun arg ->
               match arg with
               | Prolog.Term.Var v -> (classify goal_occ v, clean)
               | _ -> (S_nonvar, clean))
             args)
      in
      (match Wam.Builtin.lookup name arity with
      | Some b ->
        Hashtbl.add sc.boccs owner { bo_owner = owner; bo_b = b; bo_sides = sides }
      | None -> ());
      mark_seen t
    end
    else begin
      List.iteri
        (fun j arg ->
          let j = j + 1 in
          let kind =
            match arg with
            | Prolog.Term.Var v ->
              let k = classify goal_occ v in
              if k <> S_dirty then begin
                let prev =
                  Option.value ~default:[] (Hashtbl.find_opt call_sites v)
                in
                Hashtbl.replace call_sites v ((callee, j, clean) :: prev)
              end;
              k
            | _ -> S_nonvar
          in
          sc.n_sites <- sc.n_sites + 1;
          Hashtbl.add sc.sites (callee, j)
            { st_caller = owner; st_kind = kind; st_clean = clean })
        args;
      mark_seen t
    end
  in
  List.iter
    (function
      | Prolog.Cge.Lit t ->
        let name, arity = goal_key t in
        let user =
          name <> "!" && name <> "true" && name <> "fail"
          && not (is_builtin name arity)
        in
        do_goal ~clean:(not !dirty) t;
        if user then dirty := true
      | Prolog.Cge.Par { checks = _; arms } ->
        (* independence-certified arms never bind each other's
           variables, and a joined CGE leaves no choice point: arms
           share the pre-CGE cleanliness *)
        let d0 = !dirty in
        List.iter (fun arm -> do_goal ~clean:(not d0) arm) arms;
        dirty := true)
    body;
  (* Head-argument shapes for the uninit certificate. *)
  List.iteri
    (fun i arg ->
      let i = i + 1 in
      let shape =
        match arg with
        | Prolog.Term.Var v ->
          if Hashtbl.mem head_repeat v then Sh_refuse
          else begin
            let occ = Option.value ~default:0 (Hashtbl.find_opt total v) in
            if occ <= 1 then Sh_refuse (* unused output: cell never written *)
            else
              match Hashtbl.find_opt call_sites v with
              | Some [ (callee, j, clean) ] when occ = 2 ->
                Sh_pass ((callee, j), clean)
              | _ -> Sh_refuse
          end
        | _ -> Sh_nonvar
      in
      Hashtbl.add sc.shapes (owner, i) shape)
    head_args

(* ------------------------------------------------------------------ *)
(* Fixpoints.                                                         *)

let analyze ?(weakening = sound) ~db ~query_db ~patterns
    ~(chains : Wam.Compile.chain_info list) () =
  let preds = Prolog.Database.predicates db in
  let chain_tbl : (key, Wam.Compile.chain_info) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (ci : Wam.Compile.chain_info) -> Hashtbl.add chain_tbl ci.ci_pred ci) chains;
  let ddet p =
    List.for_all
      (fun (ci : Wam.Compile.chain_info) -> ci.ci_det)
      (Hashtbl.find_all chain_tbl p)
  in
  let ddet' p = weakening.wk_cond_blind || ddet p in
  let global_cp_free =
    List.for_all (fun (ci : Wam.Compile.chain_info) -> ci.ci_det) chains
  in
  let gfa p i =
    match Prolog.Abspat.find patterns ~name:(fst p) ~arity:(snd p) with
    | Some e
      when i >= 1 && i <= Array.length e.Prolog.Abspat.call.Prolog.Abspat.args
      ->
      e.Prolog.Abspat.call.Prolog.Abspat.args.(i - 1)
    | _ -> Prolog.Abspat.Any
  in
  let indexable p =
    snd p > 0
    &&
    match Prolog.Database.clauses db p with
    | [] | [ _ ] -> false
    | cls ->
      List.exists
        (fun (c : Prolog.Database.clause) ->
          match Prolog.Term.args c.Prolog.Database.head with
          | first :: _ -> (
            match first with Prolog.Term.Var _ -> false | _ -> true)
          | [] -> false)
        cls
  in
  (* Scan every clause, plus the query as a headless clause. *)
  let sc = new_scan () in
  List.iter
    (fun p ->
      List.iter
        (fun (c : Prolog.Database.clause) ->
          scan_clause sc ~owner:p (Some c.Prolog.Database.head)
            c.Prolog.Database.body)
        (Prolog.Database.clauses db p))
    preds;
  List.iter
    (fun p ->
      List.iter
        (fun (c : Prolog.Database.clause) ->
          scan_clause sc ~owner:("$query", 0) None c.Prolog.Database.body)
        (Prolog.Database.clauses query_db p))
    (Prolog.Database.predicates query_db);
  let clean' (s : bool) = weakening.wk_cond_blind || s in
  (* Greatest fixpoint over U (uninit) and W (written-first) jointly:
     start optimistic, strike entries whose rule fails, repeat. *)
  let u_tbl : (key * int, bool) Hashtbl.t = Hashtbl.create 32 in
  let w_tbl : (key * int, bool) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun p ->
      if snd p < 256 then
        for j = 1 to snd p do
          Hashtbl.replace u_tbl (p, j) true;
          Hashtbl.replace w_tbl (p, j) true
        done)
    preds;
  let u p j = Option.value ~default:false (Hashtbl.find_opt u_tbl (p, j)) in
  let w p j = Option.value ~default:false (Hashtbl.find_opt w_tbl (p, j)) in
  let site_ok (s : site) =
    match s.st_kind with
    | S_fresh -> true
    | S_head_top i ->
      clean' s.st_clean
      && gfa s.st_caller i = Prolog.Abspat.Free
      && w s.st_caller i && ddet' s.st_caller
    | S_head_sub i -> clean' s.st_clean && u s.st_caller i
    | S_nonvar | S_dirty -> false
  in
  let w_rule p j = List.for_all site_ok (Hashtbl.find_all sc.sites (p, j)) in
  let u_rule p j =
    (weakening.wk_force_uninit
    || gfa p j = Prolog.Abspat.Free
       && w p j && ddet' p
       && not (indexable p && j = 1))
    && (match Hashtbl.find_all sc.shapes (p, j) with
       | [] -> false
       | shapes ->
         List.for_all
           (function
             | Sh_nonvar -> true
             | Sh_pass ((q, j'), clean) -> clean' clean && u q j'
             | Sh_refuse -> false)
           shapes)
  in
  let step p =
    let changed = ref false in
    if snd p < 256 then
      for j = 1 to snd p do
        if w p j && not (w_rule p j) then begin
          Hashtbl.replace w_tbl (p, j) false;
          changed := true
        end;
        if u p j && not (u_rule p j) then begin
          Hashtbl.replace u_tbl (p, j) false;
          changed := true
        end
      done;
    !changed
  in
  (* no cap: an entry not yet struck would stay certified *)
  ignore (Analysis.Depgraph.fixpoint preds step);
  (* Builtin occurrences: a side is a free definition when it is a
     fresh variable or a certified-free head variable; bound when it
     is a non-variable term or a ground head variable.  =/2 needs one
     definitely-free side (a single bind at that cell, no recursive
     descent) and the other side classified; is/2 needs its target
     classified.  A globally choice-point-free program certifies any
     occurrence. *)
  let def_free p (k, clean) =
    if weakening.wk_nt_alias then k <> S_nonvar
    else
      match k with
      | S_fresh -> true
      | S_head_top i ->
        clean' clean && gfa p i = Prolog.Abspat.Free && w p i && ddet' p
      | S_head_sub i -> clean' clean && u p i
      | _ -> false
  in
  let def_bound p (k, _clean) =
    match k with
    | S_nonvar -> true
    | S_head_top i -> gfa p i = Prolog.Abspat.Ground
    | _ -> false
  in
  let occ_ok p (o : bocc) =
    match o.bo_b with
    | Wam.Builtin.Is ->
      Array.length o.bo_sides >= 1
      && (def_free p o.bo_sides.(0) || def_bound p o.bo_sides.(0))
    | Wam.Builtin.Unify ->
      Array.length o.bo_sides = 2
      &&
      let s1 = o.bo_sides.(0) and s2 = o.bo_sides.(1) in
      (def_free p s1 && (def_free p s2 || def_bound p s2))
      || (def_free p s2 && (def_free p s1 || def_bound p s1))
    | _ -> false
  in
  let nt_builtin p b =
    (b = Wam.Builtin.Unify || b = Wam.Builtin.Is)
    &&
    let occs =
      List.filter (fun o -> o.bo_b = b) (Hashtbl.find_all sc.boccs p)
    in
    occs <> [] && (global_cp_free || List.for_all (occ_ok p) occs)
  in
  let rigid1 p =
    indexable p && (weakening.wk_rigid_any || gfa p 1 = Prolog.Abspat.Ground)
  in
  let defined p = Prolog.Database.clauses db p <> [] in
  let value_nt p j = global_cp_free && defined p && j >= 1 && j <= snd p in
  let facts =
    List.map
      (fun p ->
        let n = snd p in
        {
          Dom.pf_pred = p;
          pf_args =
            Array.init n (fun i ->
                let j = i + 1 in
                {
                  Dom.a_inst =
                    (if rigid1 p && j = 1 && gfa p 1 <> Prolog.Abspat.Ground
                     then Dom.Rigid 0
                     else Dom.of_gfa (gfa p j));
                  a_cond =
                    (if global_cp_free || u p j then Dom.Uncond else Dom.Cond);
                });
          pf_ddet = ddet p;
          pf_uninit = Array.init n (fun i -> u p (i + 1));
        })
      preds
  in
  {
    preds;
    global_cp_free;
    ddet;
    indexable;
    gfa;
    uninit = u;
    wfirst = w;
    rigid1;
    value_nt;
    nt_builtin;
    facts;
    n_sites = sc.n_sites;
    n_boccs = Hashtbl.length sc.boccs;
    weakening;
  }
