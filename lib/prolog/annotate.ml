(* Automatic CGE annotation.

   The paper notes that CGEs "can be generated automatically by the
   compiler, through a combination of local and global analysis which
   often makes run-time independence checks unnecessary" (its reference
   [17]).  This module implements the annotator: a mode-driven
   groundness/independence analysis rewrites plain clause bodies into
   parallel groups, inserting ground/indep run-time checks exactly
   where the analysis is inconclusive.

   The local part seeds per-clause abstract states from `:- mode`
   directives.  When the caller also supplies the global analysis
   results ([?patterns], computed by lib/analysis), clause entry states
   are seeded from the inferred interprocedural call patterns, goal
   effects use inferred success patterns, and possible aliasing is
   tracked as an explicit pair-sharing relation instead of the
   worst-case "all unknowns alias" assumption -- so checks that local
   analysis would emit are discharged statically, and groups that the
   local analysis abandons (more than [max_checks] checks) become
   unconditionally parallel.

   Abstract state per variable:
     G  definitely ground
     F  definitely free and unaliased (first occurrence of an output)
     A  unknown (possibly aliased, possibly partially instantiated)

   Two goals can run in parallel when every variable they share is G
   (strict goal independence); a shared A variable yields a ground/1
   check, and a pair of possibly-aliased variables yields an indep/2
   check.  F variables are freshly introduced and cannot alias one
   another, so distinct F variables are independent.  If a group would
   need more than [max_checks] run-time checks the goals are left
   sequential (checks would eat the parallel gain). *)

type abs = G | F | A

type decision = Independent | Conditional of Cge.check list | Dependent

let max_checks = 4

type stats = {
  groups : int;
  checks_emitted : int;
  checks_discharged : int;
  groups_abandoned : int;
  sequentialized : int;
  static_safe : int;
  det_arms : int;
}

(* Granularity control (Debray/Hermenegildo): a cost oracle classifies
   each candidate goal.  [Small] goals cost less than the spawn
   overhead no matter what, [Guard (t, k)] goals are worth spawning
   only when the input [t] is big enough (a [size_ge(t, k)] run-time
   check), [Keep] goals parallelize unconditionally. *)
type verdict = Keep | Small | Guard of Term.t * int

(* ------------------------------------------------------------------ *)
(* Abstract state.                                                    *)

(* [pairs] is the may-share relation among A variables, kept only in
   precise (pattern-driven) mode; without patterns every pair of A
   variables is assumed to possibly share, which is exactly the
   historical behavior. *)
type state = {
  tbl : (string, abs) Hashtbl.t;
  pairs : (string * string, unit) Hashtbl.t;
  precise : bool;
}

let make_state ~precise () =
  { tbl = Hashtbl.create 16; pairs = Hashtbl.create 16; precise }

let copy_state st =
  { tbl = Hashtbl.copy st.tbl; pairs = Hashtbl.copy st.pairs;
    precise = st.precise }

(* A variable with no entry has never been mentioned: it is fresh,
   hence free and unaliased. *)
let get (st : state) v =
  match Hashtbl.find_opt st.tbl v with Some a -> a | None -> F

let norm_pair x y : string * string = if x <= y then (x, y) else (y, x)

let drop_pairs st v =
  Hashtbl.iter
    (fun ((x, y) as p) () -> if x = v || y = v then Hashtbl.remove st.pairs p)
    (Hashtbl.copy st.pairs)

(* Ground is stable: no later goal can unbind a ground variable. *)
let set (st : state) v a =
  match Hashtbl.find_opt st.tbl v with
  | Some G -> ()
  | Some _ | None ->
    Hashtbl.replace st.tbl v a;
    if a = G && st.precise then drop_pairs st v

let paired st x y = Hashtbl.mem st.pairs (norm_pair x y)

(* May x and y share structure?  Without sharing info, any two
   non-ground variables may (unless both are fresh F). *)
let may_share st x y = (not st.precise) || paired st x y

(* Star-closure linking: binding x against y also connects everything
   already sharing with x to everything already sharing with y. *)
let neighbors st v =
  Hashtbl.fold
    (fun (x, y) () acc ->
      if x = v then y :: acc else if y = v then x :: acc else acc)
    st.pairs [ v ]

let link st u v =
  if u <> v && get st u <> G && get st v <> G then begin
    let nu = neighbors st u and nv = neighbors st v in
    set st u A;
    set st v A;
    List.iter
      (fun x ->
        List.iter
          (fun y ->
            if x <> y && get st x <> G && get st y <> G then begin
              Hashtbl.replace st.pairs (norm_pair x y) ();
              set st x A;
              set st y A
            end)
          nv)
      nu
  end

let link_all st vars =
  let rec go = function
    | [] -> ()
    | v :: rest ->
      List.iter (fun w -> link st v w) rest;
      go rest
  in
  go vars

let term_ground st t = List.for_all (fun v -> get st v = G) (Term.vars t)

(* Smash a set of variables to unknown; in precise mode they may now
   all alias one another (and, transitively, their old neighbors). *)
let smash st vars =
  List.iter (fun v -> set st v A) vars;
  if st.precise then link_all st vars

(* ------------------------------------------------------------------ *)
(* Entry seeding.                                                     *)

let head_spec head =
  match head with
  | Term.Atom n -> (n, [])
  | Term.Struct (n, a) -> (n, a)
  | Term.Int _ | Term.Var _ -> ("", [])

(* Mode-directive seeding (the local analysis).  [strengthen] makes it
   refine an existing pattern-derived state instead of defining one. *)
let seed_from_modes ?(strengthen = false) modes head st =
  let name, args = head_spec head in
  let arg_modes =
    match Modes.lookup modes ~name ~arity:(List.length args) with
    | Some ms -> ms
    | None -> List.map (fun _ -> Modes.Unknown) args
  in
  List.iter2
    (fun arg m ->
      match m with
      | Modes.Ground_in -> List.iter (fun v -> set st v G) (Term.vars arg)
      | Modes.Free_in_ground_out -> begin
        match arg with
        | Term.Var v ->
          if strengthen then begin
            if get st v <> G then begin
              Hashtbl.replace st.tbl v F;
              if st.precise then drop_pairs st v
            end
          end
          else if not (Hashtbl.mem st.tbl v) then set st v F
        | Term.Atom _ | Term.Int _ | Term.Struct _ ->
          if not strengthen then
            List.iter
              (fun v -> if not (Hashtbl.mem st.tbl v) then set st v A)
              (Term.vars arg)
      end
      | Modes.Unknown ->
        if not strengthen then
          List.iter
            (fun v -> if not (Hashtbl.mem st.tbl v) then set st v A)
            (Term.vars arg))
    args arg_modes

(* Pattern seeding (the global analysis): groundness/freeness per
   argument plus the may-share pairs among argument positions. *)
let seed_from_pattern (pat : Abspat.pattern) head st =
  let _, args = head_spec head in
  let arg_vars = Array.of_list (List.map Term.vars args) in
  List.iteri
    (fun i arg ->
      match pat.Abspat.args.(i) with
      | Abspat.Ground -> List.iter (fun v -> set st v G) (Term.vars arg)
      | Abspat.Free -> () (* unbound and unaliased: the F default *)
      | Abspat.Any -> List.iter (fun v -> set st v A) (Term.vars arg))
    args;
  List.iter
    (fun (i, j) ->
      if i = j then link_all st arg_vars.(i)
      else
        List.iter
          (fun u -> List.iter (fun v -> link st u v) arg_vars.(j))
          arg_vars.(i))
    pat.Abspat.share

let seed_from_head ?patterns modes head st =
  let name, args = head_spec head in
  let entry =
    match patterns with
    | None -> None
    | Some pats -> Abspat.find pats ~name ~arity:(List.length args)
  in
  match entry with
  | Some e ->
    seed_from_pattern e.Abspat.call head st;
    seed_from_modes ~strengthen:true modes head st
  | None -> seed_from_modes modes head st

(* ------------------------------------------------------------------ *)
(* Success effect of one goal.                                        *)

let goal_spec g =
  match g with
  | Term.Atom n -> (n, [])
  | Term.Struct (n, a) -> (n, a)
  | Term.Int _ | Term.Var _ -> ("", [])

let goal_modes modes g =
  let name, args = goal_spec g in
  let arity = List.length args in
  match Modes.builtin_modes name arity with
  | Some ms -> Some ms
  | None -> Modes.lookup modes ~name ~arity

(* Apply an inferred success pattern at a call site. *)
let apply_success st args (pat : Abspat.pattern) =
  let arg_vars = Array.of_list (List.map Term.vars args) in
  Array.iteri
    (fun i vs ->
      match pat.Abspat.args.(i) with
      | Abspat.Ground -> List.iter (fun v -> set st v G) vs
      | Abspat.Free -> ()
      | Abspat.Any -> List.iter (fun v -> set st v A) vs)
    arg_vars;
  List.iter
    (fun (i, j) ->
      if i = j then link_all st arg_vars.(i)
      else
        List.iter
          (fun u -> List.iter (fun v -> link st u v) arg_vars.(j))
          arg_vars.(i))
    pat.Abspat.share

let apply_effect ?patterns modes st g =
  let name, args = goal_spec g in
  match (name, args) with
  | "=", [ a; b ] ->
    (* unification: groundness flows across; otherwise the two sides
       may now alias *)
    if term_ground st a then List.iter (fun v -> set st v G) (Term.vars b)
    else if term_ground st b then
      List.iter (fun v -> set st v G) (Term.vars a)
    else if not st.precise then
      List.iter (fun v -> set st v A) (Term.vars a @ Term.vars b)
    else begin
      (* Var = t connects the variable to t's variables but not t's
         variables to each other (they occupy disjoint subterms) *)
      match (a, b) with
      | Term.Var x, _ -> List.iter (fun v -> link st x v) (Term.vars b)
      | _, Term.Var y -> List.iter (fun v -> link st y v) (Term.vars a)
      | _, _ ->
        List.iter
          (fun u -> List.iter (fun v -> link st u v) (Term.vars b))
          (Term.vars a)
    end
  | _ -> begin
    let entry =
      match patterns with
      | None -> None
      | Some pats ->
        Abspat.find pats ~name ~arity:(List.length args)
    in
    match entry with
    | Some e -> apply_success st args e.Abspat.success
    | None -> begin
      match goal_modes modes g with
      | Some ms ->
        let unknown_vars = ref [] in
        List.iter2
          (fun arg m ->
            match m with
            | Modes.Ground_in | Modes.Free_in_ground_out ->
              List.iter (fun v -> set st v G) (Term.vars arg)
            | Modes.Unknown ->
              unknown_vars := !unknown_vars @ Term.vars arg)
          args ms;
        smash st !unknown_vars
      | None ->
        (* unknown predicate: everything it touches may be aliased *)
        smash st (List.concat_map Term.vars args)
    end
  end

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

let pair_decision st g h =
  let vg = Term.vars (Term.Struct ("$", snd (goal_spec g))) in
  let vh = Term.vars (Term.Struct ("$", snd (goal_spec h))) in
  let shared = List.filter (fun v -> List.mem v vh) vg in
  let checks = ref [] in
  let dependent = ref false in
  (* shared variables: ground is enough *)
  List.iter
    (fun v ->
      match get st v with
      | G -> ()
      | F -> dependent := true (* a free variable both would bind/read *)
      | A -> checks := Cge.Ground (Term.Var v) :: !checks)
    shared;
  (* distinct possibly-aliased pairs: indep/2 checks.  F variables are
     fresh and unaliased, so only A-A pairs matter; with sharing info
     an A-A pair needs a check only when the analysis could not rule
     the aliasing out. *)
  let a_vars vs = List.filter (fun v -> get st v = A) vs in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if
            x <> y
            && (not (List.mem y shared))
            && (not (List.mem x shared))
            && may_share st x y
          then checks := Cge.Indep (Term.Var x, Term.Var y) :: !checks)
        (a_vars vh))
    (a_vars vg);
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
  entry : state; (* snapshot at group start *)
}

type counters = {
  mutable c_groups : int;
  mutable c_checks : int;
  mutable c_abandoned : int;
  mutable c_sequentialized : int;
  mutable c_static_safe : int;
  mutable c_det_arms : int;
}

(* Score every emitted parallel group against the external race-freedom
   certifier (refmap's static summaries), counting the ones it proves
   safe without run-time verification. *)
let count_certified certifier counters items =
  match certifier with
  | None -> ()
  | Some safe ->
    List.iter
      (function
        | Cge.Par { checks; arms } ->
          if safe checks arms then
            counters.c_static_safe <- counters.c_static_safe + 1
        | Cge.Lit _ -> ())
      items

(* Score the arms of every emitted parallel group against the external
   determinacy judgment (detan's success-count lattice): an arm whose
   called predicate is provably [exactly_one] can skip the marker
   bookkeeping the goal-stack machinery does for backtrackable arms. *)
let count_det_arms determinacy counters items =
  match determinacy with
  | None -> ()
  | Some det ->
    List.iter
      (function
        | Cge.Par { arms; _ } ->
          List.iter
            (fun arm ->
              let spec =
                match arm with
                | Term.Atom name -> Some (name, 0)
                | Term.Struct (name, args) -> Some (name, List.length args)
                | Term.Int _ | Term.Var _ -> None
              in
              match spec with
              | Some s when det s ->
                counters.c_det_arms <- counters.c_det_arms + 1
              | Some _ | None -> ())
            arms
        | Cge.Lit _ -> ())
      items

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

let flush_group ?patterns ?granularity ?certifier ?determinacy modes st group
    out counters =
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
        count_certified certifier counters items;
        count_det_arms determinacy counters items;
        List.iter out items
      | items -> List.iter out items));
    (* effects of the group's goals apply at the join *)
    List.iter (apply_effect ?patterns modes st) goals

let annotate_body ?patterns ?granularity ?certifier ?determinacy modes db st
    counters body =
  let items = ref [] in
  let out item = items := item :: !items in
  let group : group option ref = ref None in
  let flush () =
    flush_group ?patterns ?granularity ?certifier ?determinacy modes st !group
      out counters;
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
          let kept = apply_granularity granularity counters checks arms in
          count_certified certifier counters kept;
          count_det_arms determinacy counters kept;
          List.iter out kept;
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
            let entry = copy_state st in
            group := Some { goals = [ g ]; checks = []; entry }
          | Some grp -> begin
            (* g joins if compatible with every member, judged at the
               group-entry state *)
            let decisions =
              List.map (fun h -> pair_decision grp.entry g h) grp.goals
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
              let entry = copy_state st in
              group := Some { goals = [ g ]; checks = []; entry }
          end
        end)
    body;
  flush ();
  List.rev !items

(* ------------------------------------------------------------------ *)

(* Annotate every clause of [db]; returns a new database (the original
   is untouched).  [modes] are the database's `:- mode ...`
   directives.  [patterns] supplies global
   analysis results; a clause uses them only when its own predicate
   was reached by the analysis (otherwise its entry states would be
   unsound), falling back to the purely local mode analysis. *)
let annotate ~modes ?patterns ?granularity ?certifier ?determinacy db =
  let out = Database.create () in
  let counters =
    {
      c_groups = 0;
      c_checks = 0;
      c_abandoned = 0;
      c_sequentialized = 0;
      c_static_safe = 0;
      c_det_arms = 0;
    }
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
          let st = make_state ~precise:(clause_patterns <> None) () in
          seed_from_head ?patterns:clause_patterns modes clause.Database.head
            st;
          let body =
            annotate_body ?patterns:clause_patterns ?granularity ?certifier
              ?determinacy modes db st counters clause.Database.body
          in
          Database.add_clause out { Database.head = clause.head; body })
        (Database.clauses db (name, arity)))
    (Database.predicates db);
  (out, counters)

let database ?patterns ?granularity db =
  fst (annotate ~modes:(Modes.of_database db) ?patterns ?granularity db)

let database_stats ?patterns ?granularity ?certifier ?determinacy db =
  let modes = Modes.of_database db in
  let out, c =
    annotate ~modes ?patterns ?granularity ?certifier ?determinacy db
  in
  let discharged =
    match patterns with
    | None -> 0
    | Some _ ->
      (* what would the purely local annotation have cost? *)
      let _, base = annotate ~modes db in
      max 0 (base.c_checks - c.c_checks)
  in
  ( out,
    {
      groups = c.c_groups;
      checks_emitted = c.c_checks;
      checks_discharged = discharged;
      groups_abandoned = c.c_abandoned;
      sequentialized = c.c_sequentialized;
      static_safe = c.c_static_safe;
      det_arms = c.c_det_arms;
    } )

(* Count the parallel goals introduced (for reporting). *)
let parallelism_found db = Database.parallel_call_count db

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
