(* Automatic CGE annotation.

   The paper notes that CGEs "can be generated automatically by the
   compiler, through a combination of local and global analysis which
   often makes run-time independence checks unnecessary" (its reference
   [17]).  This module implements the annotator: a mode-driven
   groundness/independence analysis rewrites plain clause bodies into
   parallel groups, inserting ground/indep run-time checks exactly
   where the analysis is inconclusive.

   Both parts run on one abstract domain, {!Absdom}, the one the global
   fixpoint (lib/analysis) uses.  The local part seeds per-clause
   abstract states from `:- mode` directives.  When the caller also
   supplies the global analysis results ([?patterns]), clause entry
   states are seeded from the inferred interprocedural call patterns,
   goal effects use inferred success patterns, and the domain's
   pair-sharing relation replaces the worst-case "all unknowns alias"
   assumption -- so checks that local analysis would emit are
   discharged statically, and groups that the local analysis abandons
   (more than [max_checks] checks) become unconditionally parallel.

   Abstract state per variable ({!Abspat.gfa}):
     Ground  definitely ground
     Free    definitely free and unaliased (an output's first occurrence)
     Any     unknown (possibly aliased, possibly partially instantiated)

   Two goals can run in parallel when every variable they share is
   ground (strict goal independence); a shared unknown variable yields
   a ground/1 check, and a pair of possibly-aliased variables yields an
   indep/2 check.  Free variables are freshly introduced and cannot
   alias one another, so distinct free variables are independent.  If
   a group would need more than [max_checks] run-time checks the goals
   are left sequential (checks would eat the parallel gain). *)

type decision = Independent | Conditional of Cge.check list | Dependent

let max_checks = 4

type stats = {
  groups : int;
  checks_emitted : int;
  groups_abandoned : int;
  sequentialized : int;
}

(* Granularity control (Debray/Hermenegildo): a cost oracle classifies
   each candidate goal.  [Small] goals cost less than the spawn
   overhead no matter what, [Guard (t, k)] goals are worth spawning
   only when the input [t] is big enough (a [size_ge(t, k)] run-time
   check), [Keep] goals parallelize unconditionally. *)
type verdict = Keep | Small | Guard of Term.t * int

(* ------------------------------------------------------------------ *)
(* Abstract state.                                                    *)

(* One clause's abstract substitution.  The may-share pairs are
   consulted only in precise (pattern-driven) mode; without patterns
   every pair of unknown variables is assumed to possibly share. *)
type state = { mutable dom : Absdom.t; precise : bool }

(* Smash a set of variables to unknown: they may now all alias one
   another (and, transitively, their old neighbors). *)
let smash dom vars = Absdom.link_all (Absdom.make_any dom vars) vars

(* ------------------------------------------------------------------ *)
(* Entry seeding.                                                     *)

(* The head's declared modes, [?] where there is no directive. *)
let head_modes modes head =
  match
    Option.bind (Term.functor_of head) (fun (name, arity) ->
        Modes.lookup modes ~name ~arity)
  with
  | Some ms -> ms
  | None -> List.map (fun _ -> Modes.Unknown) (Term.args head)

(* The local analysis: seed from the `:- mode` directive alone.  A
   variable keeps the state of its first mention, but a [+] position
   grounds it wherever it occurs.  An [Absdom.t] cannot tell a
   variable a [-] position declared free from one never mentioned, so
   the mentions are kept here. *)
let seed_from_modes modes head =
  let mentioned = Hashtbl.create 8 in
  let mention v = Hashtbl.replace mentioned v () in
  let first v =
    (not (Hashtbl.mem mentioned v))
    && begin
      mention v;
      true
    end
  in
  List.fold_left2
    (fun dom arg m ->
      match (m, arg) with
      | Modes.Ground_in, _ ->
        let vs = Term.vars arg in
        List.iter mention vs;
        Absdom.set_ground dom vs
      | Modes.Free_in_ground_out, Term.Var v ->
        mention v;
        dom
      | (Modes.Free_in_ground_out | Modes.Unknown), _ ->
        Absdom.make_any dom (List.filter first (Term.vars arg)))
    Absdom.empty (Term.args head) (head_modes modes head)

(* A mode directive also refines a pattern-derived state: [+] grounds
   its variables, [-] frees its variable unless it is [repeated]. *)
let strengthen ~repeated modes head dom =
  List.fold_left2
    (fun dom arg m ->
      match (m, arg) with
      | Modes.Ground_in, _ -> Absdom.set_ground dom (Term.vars arg)
      | Modes.Free_in_ground_out, Term.Var v when not (List.mem v repeated)
        ->
        Absdom.set_free dom v
      | (Modes.Free_in_ground_out | Modes.Unknown), _ -> dom)
    dom (Term.args head) (head_modes modes head)

(* The inferred patterns of the predicate a head or goal names. *)
let find_entry patterns g =
  match (patterns, Term.functor_of g) with
  | Some pats, Some (name, arity) -> Abspat.find pats ~name ~arity
  | _ -> None

(* A clause's entry state: from the inferred call pattern (the global
   analysis) when there is one, else from the modes alone.  Either way
   a variable repeated across the head's arguments is unknown, as in
   [Absdom.seed_head]: a call may pass terms that share in those
   positions (e(A, B, B) against e(X, X, Z) aliases X with Z). *)
let entry_state ?patterns modes head =
  let args = Term.args head in
  let repeated = Absdom.repeated args in
  match find_entry patterns head with
  | Some e ->
    strengthen ~repeated modes head (Absdom.seed_head e.Abspat.call args)
  | None -> Absdom.make_any (seed_from_modes modes head) repeated

(* ------------------------------------------------------------------ *)
(* Success effect of one goal.                                        *)

let goal_modes modes g =
  match Term.functor_of g with
  | None -> None
  | Some (name, arity) -> (
    match Modes.builtin_modes name arity with
    | Some ms -> Some ms
    | None -> Modes.lookup modes ~name ~arity)

let apply_effect ?patterns modes st g =
  let args = Term.args g in
  st.dom <-
    (match (g, find_entry patterns g, goal_modes modes g) with
    | Term.Struct ("=", [ a; b ]), _, _ ->
      (* groundness flows across; otherwise the two sides may now
         alias, and without sharing information both are unknown *)
      let dom = Absdom.unify st.dom a b in
      if st.precise then dom
      else Absdom.make_any dom (Term.vars a @ Term.vars b)
    | _, Some e, _ -> Absdom.apply_success st.dom args e.Abspat.success
    | _, None, Some ms ->
      let dom, unknown =
        List.fold_left2
          (fun (dom, unknown) arg m ->
            match m with
            | Modes.Ground_in | Modes.Free_in_ground_out ->
              (Absdom.set_ground dom (Term.vars arg), unknown)
            | Modes.Unknown -> (dom, unknown @ Term.vars arg))
          (st.dom, []) args ms
      in
      smash dom unknown
    | _, None, None ->
      (* unknown predicate: everything it touches may be aliased *)
      smash st.dom (List.concat_map Term.vars args))

(* ------------------------------------------------------------------ *)
(* Pairwise independence at a given state.                            *)

(* Order-stable deduplication, O(n) expected (was a quadratic fold). *)
let dedup_checks checks =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      if Hashtbl.mem seen c then false
      else begin
        Hashtbl.add seen c ();
        true
      end)
    checks

let pair_decision ~precise dom g h =
  let vg = Term.vars (Term.Struct ("$", Term.args g)) in
  let vh = Term.vars (Term.Struct ("$", Term.args h)) in
  let shared = List.filter (fun v -> List.mem v vh) vg in
  let checks = ref [] in
  let dependent = ref false in
  (* shared variables: ground is enough *)
  List.iter
    (fun v ->
      match Absdom.gfa_of dom v with
      | Abspat.Ground -> ()
      | Abspat.Free ->
        dependent := true (* a free variable both would bind/read *)
      | Abspat.Any -> checks := Cge.Ground (Term.Var v) :: !checks)
    shared;
  (* distinct possibly-aliased pairs: indep/2 checks.  Free variables
     are fresh and unaliased, so only pairs of unknowns matter; with
     sharing info such a pair needs a check only when the analysis
     could not rule the aliasing out. *)
  let unknown vs = List.filter (fun v -> Absdom.gfa_of dom v = Abspat.Any) vs in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if
            x <> y
            && (not (List.mem y shared))
            && (not (List.mem x shared))
            && ((not precise) || Absdom.may_share dom x y)
          then checks := Cge.Indep (Term.Var x, Term.Var y) :: !checks)
        (unknown vh))
    (unknown vg);
  if !dependent then Dependent
  else begin
    match dedup_checks (List.rev !checks) with
    | [] -> Independent
    | cs -> Conditional cs
  end

(* ------------------------------------------------------------------ *)
(* Body rewriting.                                                    *)

(* Goals eligible for parallel arms: user predicate calls. *)
let parallelizable db g =
  match g with
  | Term.Atom ("!" | "true" | "fail") -> false
  | Term.Atom name -> Database.has_predicate db (name, 0)
  | Term.Struct (name, args) ->
    Database.has_predicate db (name, List.length args)
  | Term.Int _ | Term.Var _ -> false

type group = {
  mutable goals : Term.t list; (* reverse order *)
  mutable checks : Cge.check list;
  entry : Absdom.t; (* state at group start *)
}

type counters = {
  mutable c_groups : int;
  mutable c_checks : int;
  mutable c_abandoned : int;
  mutable c_sequentialized : int;
}

(* Granularity filter over a would-be parallel group.  When every arm
   is provably below the spawn-overhead threshold the group runs
   sequentially (the CGE never pays for itself); otherwise arms whose
   cost depends on an input size contribute a [size_ge] guard to the
   CGE condition, so small instances take the sequential else-branch
   at run time. *)
let apply_granularity granularity counters checks arms =
  match granularity with
  | None -> [ Cge.Par { checks; arms } ]
  | Some verdict_of ->
    let verdicts = List.map verdict_of arms in
    if List.for_all (fun v -> v = Small) verdicts then begin
      counters.c_sequentialized <- counters.c_sequentialized + 1;
      List.map (fun g -> Cge.Lit g) arms
    end
    else begin
      let guards =
        List.filter_map
          (function
            | Guard (t, k) -> Some (Cge.Size_ge (t, k))
            | Keep | Small -> None)
          verdicts
      in
      [ Cge.Par { checks = dedup_checks (checks @ guards); arms } ]
    end

let flush_group ?patterns ?granularity modes st group out counters =
  match group with
  | None -> ()
  | Some g ->
    let goals = List.rev g.goals in
    (match goals with
    | [] -> ()
    | [ single ] -> out (Cge.Lit single)
    | _ :: _ :: _ -> (
      let checks = dedup_checks g.checks in
      match apply_granularity granularity counters checks goals with
      | [ Cge.Par { checks; _ } ] as items ->
        counters.c_groups <- counters.c_groups + 1;
        counters.c_checks <- counters.c_checks + List.length checks;
        List.iter out items
      | items -> List.iter out items));
    (* effects of the group's goals apply at the join *)
    List.iter (apply_effect ?patterns modes st) goals

let annotate_body ?patterns ?granularity modes db st counters body =
  let items = ref [] in
  let out item = items := item :: !items in
  let group : group option ref = ref None in
  let flush () =
    flush_group ?patterns ?granularity modes st !group out counters;
    group := None
  in
  List.iter
    (fun item ->
      match item with
      | Cge.Par _ ->
        (* already annotated by the programmer: keep (after a flush),
           but still subject to granularity control *)
        flush ();
        (match item with
        | Cge.Par { checks; arms } ->
          List.iter out (apply_granularity granularity counters checks arms);
          List.iter (apply_effect ?patterns modes st) arms
        | Cge.Lit _ -> out item)
      | Cge.Lit g ->
        if not (parallelizable db g) then begin
          flush ();
          apply_effect ?patterns modes st g;
          out (Cge.Lit g)
        end
        else begin
          match !group with
          | None ->
            group := Some { goals = [ g ]; checks = []; entry = st.dom }
          | Some grp -> begin
            (* g joins if compatible with every member, judged at the
               group-entry state *)
            let decisions =
              List.map
                (fun h -> pair_decision ~precise:st.precise grp.entry g h)
                grp.goals
            in
            let combined =
              List.fold_left
                (fun acc d ->
                  match (acc, d) with
                  | Dependent, _ | _, Dependent -> Dependent
                  | Independent, x -> x
                  | x, Independent -> x
                  | Conditional a, Conditional b -> Conditional (a @ b))
                Independent decisions
            in
            match combined with
            | Independent -> grp.goals <- g :: grp.goals
            | Conditional cs
              when List.length (dedup_checks (grp.checks @ cs))
                   <= max_checks ->
              grp.goals <- g :: grp.goals;
              grp.checks <- dedup_checks (grp.checks @ cs)
            | Conditional _ | Dependent ->
              counters.c_abandoned <- counters.c_abandoned + 1;
              flush ();
              group := Some { goals = [ g ]; checks = []; entry = st.dom }
          end
        end)
    body;
  flush ();
  List.rev !items

(* ------------------------------------------------------------------ *)

(* Annotate every clause of [db] once; returns a new database (the
   original is untouched) and the counts of that one annotation.
   [modes] are the database's `:- mode ...` directives.  [patterns]
   supplies global analysis results; a clause uses them only when its
   own predicate was reached by the analysis (otherwise its entry
   states would be unsound), falling back to the purely local mode
   analysis. *)
let database_stats ?patterns ?granularity db =
  let modes = Modes.of_database db in
  let out = Database.create () in
  let counters =
    { c_groups = 0; c_checks = 0; c_abandoned = 0; c_sequentialized = 0 }
  in
  List.iter
    (fun (name, arity) ->
      let clause_patterns =
        match patterns with
        | Some pats when Abspat.reached pats ~name ~arity -> patterns
        | Some _ | None -> None
      in
      List.iter
        (fun (clause : Database.clause) ->
          let st =
            {
              dom =
                entry_state ?patterns:clause_patterns modes
                  clause.Database.head;
              precise = clause_patterns <> None;
            }
          in
          let body =
            annotate_body ?patterns:clause_patterns ?granularity modes db st
              counters clause.Database.body
          in
          Database.add_clause out { Database.head = clause.head; body })
        (Database.clauses db (name, arity)))
    (Database.predicates db);
  ( out,
    {
      groups = counters.c_groups;
      checks_emitted = counters.c_checks;
      groups_abandoned = counters.c_abandoned;
      sequentialized = counters.c_sequentialized;
    } )

let database ?patterns ?granularity db =
  fst (database_stats ?patterns ?granularity db)

(* Render an annotated clause back to concrete &-Prolog syntax. *)
let pp_clause fmt (clause : Database.clause) =
  let pp_body fmt body =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ")
      (fun fmt item ->
        match item with
        | Cge.Lit g -> Pretty.pp fmt g
        | Cge.Par { checks = []; arms } ->
          Format.fprintf fmt "(%a)"
            (Format.pp_print_list
               ~pp_sep:(fun fmt () -> Format.fprintf fmt " &@ ")
               (fun fmt g -> Pretty.pp fmt g))
            arms
        | Cge.Par _ -> Cge.pp_item fmt item)
      fmt body
  in
  match clause.Database.body with
  | [] -> Format.fprintf fmt "%a." Pretty.pp clause.Database.head
  | body ->
    Format.fprintf fmt "@[<hv 4>%a :-@ %a.@]" Pretty.pp
      clause.Database.head pp_body body

let pp_database fmt db =
  List.iter
    (fun key ->
      List.iter
        (fun clause -> Format.fprintf fmt "%a@." pp_clause clause)
        (Database.clauses db key))
    (Database.predicates db)
