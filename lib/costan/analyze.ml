(* Recurrence extraction and cost classification.

   Works bottom-up over the predicate call graph in the shared
   deterministic SCC order ([Analysis.Depgraph.topo_order], the same
   order the groundness fixpoint seeds in).  For each predicate the
   pass looks for an argument position that every self-recursive call
   decreases -- structurally (the call argument is a proper subterm of
   the head pattern at that position) or numerically (an [N1 is N - k]
   chain, or [N1 is N + k] walking toward a bound tested by a
   comparison in the same clause) -- and solves the resulting
   recurrence into a cost class:

     - no recursion: the join of the callees' classes;
     - one decreasing call per clause: degree(body) + 1;
     - several structurally decreasing calls on distinct subterms of
       one argument (tree recursion): still degree(body) + 1, because
       the recursion tree is linear in the input term's size;
     - several decreasing calls sharing a metric (fib-style):
       exponential;
     - any non-decreasing recursive call, mutual recursion, a call
       through a variable, or a failure-capable builtin after a user
       goal (search, as in [query]): unknown -- no bound claimed.

   Alongside the class the pass records the per-activation memory
   footprint (the clause tables from {!Footprint}) and whether the
   predicate's call closure is cut-disciplined -- the determinacy
   evidence the granularity verdicts require before trusting a bound. *)

open Domain
module Term = Prolog.Term
module Cge = Prolog.Cge
module Database = Prolog.Database
module Depgraph = Analysis.Depgraph

type key = Depgraph.key

type pinfo = {
  key : key;
  arity : int;
  clauses : Database.clause array;
  costs : Footprint.clause_cost array;
  sel : Footprint.t;  (** per-call clause-selection overhead *)
  cls : cls;
  dec : int option;  (** the decreasing (input-size) argument position *)
  unit_cost : int;
      (** representative data references per activation, non-recursive
          callees folded in (the paper's §3.3 constant, per predicate) *)
  unit_hi : int;  (** upper bound of the same *)
  det : bool;  (** cut-disciplined: all non-final clauses cut *)
}

type t = {
  db : Database.t;
  graph : Depgraph.t;
  order : key list;
  tbl : (key, pinfo) Hashtbl.t;
}

let database t = t.db
let order t = t.order
let find t k = Hashtbl.find_opt t.tbl k

(* ------------------------------------------------------------------ *)
(* Clause-body helpers.  Arms of a CGE cost the same goals as the
   sequential reading (the analysis models the sequential machine;
   spawn overhead is the annotator's threshold, not a clause cost). *)

let body_goals body =
  List.concat_map
    (function Cge.Lit g -> [ g ] | Cge.Par { arms; _ } -> arms)
    body

let has_cut (clause : Database.clause) =
  List.exists
    (function Cge.Lit (Term.Atom "!") -> true | _ -> false)
    clause.Database.body

(* Cut-disciplined: every clause that has a successor clause commits
   with a cut, so a successful call leaves no viable alternative
   behind.  (First-argument indexing can also be deterministic without
   cuts, but only for calls with a bound first argument -- which the
   static verdict cannot assume.) *)
let cut_disciplined clauses =
  let n = Array.length clauses in
  n <= 1
  ||
  let ok = ref true in
  for i = 0 to n - 2 do
    if not (has_cut clauses.(i)) then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Decreasing-argument detection. *)

let rec proper_subvar v p =
  match p with
  | Term.Struct (_, args) ->
    List.exists
      (fun a ->
        (match a with Term.Var v' -> String.equal v v' | _ -> false)
        || proper_subvar v a)
      args
  | Term.Atom _ | Term.Int _ | Term.Var _ -> false

(* Arithmetic-step definitions in a clause body: [N1 is N - k] makes N1
   a descent from N; [N1 is N + k] counts as descent only when the
   clause also compares N against something (a bounded climb, as in
   [integers/3]). *)
let arith_descents clauses_body =
  let goals = body_goals clauses_body in
  let compared = Hashtbl.create 4 in
  List.iter
    (fun g ->
      match g with
      | Term.Struct (("<" | ">" | "=<" | ">="), [ a; b ]) ->
        List.iter (fun v -> Hashtbl.replace compared v ()) (Term.vars a);
        List.iter (fun v -> Hashtbl.replace compared v ()) (Term.vars b)
      | _ -> ())
    goals;
  List.filter_map
    (fun g ->
      match g with
      | Term.Struct ("is", [ Term.Var n1; Term.Struct ("-", [ Term.Var n; Term.Int k ]) ])
        when k >= 1 ->
        Some (n1, n)
      | Term.Struct ("is", [ Term.Var n1; Term.Struct ("+", [ Term.Var n; Term.Int k ]) ])
        when k >= 1 && Hashtbl.mem compared n ->
        Some (n1, n)
      | _ -> None)
    goals

(* Does [clause]'s recursive call [args] decrease at position [i]? *)
let decreases clause hargs descents i arg =
  match arg with
  | Term.Var a -> (
    (i < Array.length hargs && proper_subvar a hargs.(i))
    ||
    match (if i < Array.length hargs then hargs.(i) else Term.Atom "") with
    | Term.Var n ->
      List.exists
        (fun (n1, src) -> String.equal n1 a && String.equal src n)
        descents
    | _ -> false)
  | Term.Atom _ | Term.Int _ | Term.Struct _ ->
    ignore clause;
    false

(* Failure-capable builtins: their failure mid-clause forces
   backtracking the recurrence scheme cannot bound when it happens
   after a user goal (generate-and-test). *)
let can_fail_builtin g =
  match g with
  | Term.Struct
      ( ( "<" | ">" | "=<" | ">=" | "=:=" | "=\\=" | "\\=" | "==" | "\\=="
        | "@<" | "@>" | "@=<" | "@>=" ),
        _ ) ->
    true
  | _ -> false

(* ------------------------------------------------------------------ *)

let classify db graph modes (key : key) clauses (lookup : key -> pinfo option) =
  let scc_peers =
    (* mutual recursion: any callee in the same SCC other than self *)
    List.exists
      (fun k ->
        (not (k = key)) && Depgraph.scc_index graph k = Depgraph.scc_index graph key)
      (Depgraph.callees graph key)
  in
  let callee_cls k =
    if k = key then Constant (* handled by the recurrence *)
    else match lookup k with Some p -> p.cls | None -> Unknown
  in
  let gated = ref false in
  let rec_calls = ref [] (* (clause, rec-arg lists) *) in
  let body_deg = ref Constant in
  Array.iter
    (fun (clause : Database.clause) ->
      let goals = body_goals clause.Database.body in
      let seen_user = ref false in
      let this_rec = ref [] in
      List.iter
        (fun g ->
          match g with
          | Term.Var _ -> gated := true (* call/1 through a variable *)
          | _ -> (
            match Depgraph.goal_key db g with
            | Some k ->
              seen_user := true;
              if k = key then
                this_rec :=
                  (clause,
                   match g with
                   | Term.Struct (_, args) -> args
                   | _ -> [])
                  :: !this_rec
              else body_deg := join_cls !body_deg (callee_cls k)
            | None -> if !seen_user && can_fail_builtin g then gated := true))
        goals;
      rec_calls := List.rev_append !this_rec !rec_calls)
    clauses;
  if !gated || scc_peers then (Unknown, None)
  else if !rec_calls = [] then (!body_deg, None)
  else begin
    (* find a position every recursive call decreases *)
    let arity =
      match lookup key with
      | Some p -> p.arity
      | None -> (
        match clauses with
        | [||] -> 0
        | cls -> List.length (Term.args cls.(0).Database.head))
    in
    (* positions declared as inputs by the mode directives are tried
       first: a "decrease" found on an output position (a structure
       being built) is still a valid recurrence metric, but a guard on
       it would always see an unbound variable *)
    let positions =
      let all = List.init arity (fun i -> i) in
      match Prolog.Modes.lookup modes ~name:(fst key) ~arity with
      | None -> all
      | Some ms ->
        let marr = Array.of_list ms in
        let inputs =
          List.filter (fun i -> marr.(i) = Prolog.Modes.Ground_in) all
        in
        inputs @ List.filter (fun i -> not (List.mem i inputs)) all
    in
    let dec_pos = ref None in
    (try
       List.iter
         (fun i ->
           let ok =
             List.for_all
               (fun ((clause : Database.clause), args) ->
                 let hargs = Array.of_list (Term.args clause.Database.head) in
                 let descents = arith_descents clause.Database.body in
                 match List.nth_opt args i with
                 | Some arg -> decreases clause hargs descents i arg
                 | None -> false)
               !rec_calls
           in
           if ok then begin
             dec_pos := Some i;
             raise Exit
           end)
         positions
     with Exit -> ());
    match !dec_pos with
    | None -> (Unknown, None)
    | Some i ->
      (* several recursive calls per clause: tree recursion stays at
         degree + 1 when the decreasing arguments are distinct proper
         subterms of one pattern; otherwise the recurrence doubles
         (fib-style) *)
      let per_clause = Hashtbl.create 4 in
      List.iter
        (fun ((clause : Database.clause), _) ->
          let n =
            match Hashtbl.find_opt per_clause clause.Database.head with
            | Some n -> n
            | None -> 0
          in
          Hashtbl.replace per_clause clause.Database.head (n + 1))
        !rec_calls;
      let max_per_clause =
        Hashtbl.fold (fun _ n acc -> max n acc) per_clause 0
      in
      let tree_ok =
        max_per_clause <= 1
        ||
        (* within each clause, the decreasing args must be distinct
           structural subterm vars of one pattern: the recursion then
           visits each input subterm once (tree recursion), keeping
           the recurrence linear rather than fib-style *)
        Hashtbl.fold
          (fun head _ acc ->
            acc
            &&
            let calls =
              List.filter
                (fun ((c : Database.clause), _) ->
                  Term.equal c.Database.head head)
                !rec_calls
            in
            let vars =
              List.filter_map
                (fun ((clause : Database.clause), args) ->
                  let hargs = Array.of_list (Term.args clause.Database.head) in
                  match List.nth_opt args i with
                  | Some (Term.Var a)
                    when i < Array.length hargs && proper_subvar a hargs.(i)
                    ->
                    Some a
                  | _ -> None)
                calls
            in
            List.length vars = List.length calls
            && List.length (List.sort_uniq compare vars) = List.length vars)
          per_clause true
      in
      let cls =
        if not tree_ok then
          match !body_deg with Unknown -> Unknown | _ -> Expo
        else
          match degree !body_deg with
          | Some d -> of_degree (d + 1)
          | None -> !body_deg (* Expo or Unknown body dominates *)
      in
      (cls, Some i)
  end

(* ------------------------------------------------------------------ *)

let analyze ?modes db =
  let modes =
    match modes with Some m -> m | None -> Prolog.Modes.of_database db
  in
  let graph = Depgraph.build db in
  let order = Depgraph.topo_order graph in
  let tbl = Hashtbl.create 64 in
  let t = { db; graph; order; tbl } in
  List.iter
    (fun key ->
      let clauses = Array.of_list (Database.clauses db key) in
      let costs = Array.map Footprint.clause clauses in
      let arity = snd key in
      let sel = Footprint.selection ~arity (Array.to_list clauses) in
      let cls, dec =
        classify db graph modes key clauses (Hashtbl.find_opt tbl)
      in
      (* per-activation data references: the worst clause, with
         non-recursive callee activations folded in (one level of each,
         the recurrence multiplies the rest) *)
      let callee_unit k =
        if k = key then (0, 0)
        else
          match Hashtbl.find_opt tbl k with
          | Some p ->
            let s = Footprint.data_total p.sel in
            (p.unit_cost + mid s, p.unit_hi + s.hi)
          | None -> (0, 0)
      in
      let unit_cost, unit_hi =
        Array.fold_left
          (fun (am, ah) (clause, (cost : Footprint.clause_cost)) ->
            let d = Footprint.data_total cost.refs in
            let m = ref (mid d) and h = ref d.hi in
            List.iter
              (fun g ->
                match Depgraph.goal_key db g with
                | Some k ->
                  let cm, ch = callee_unit k in
                  m := !m + cm;
                  h := !h + ch
                | None -> ())
              (body_goals clause.Database.body);
            (max am !m, max ah !h))
          (0, 0)
          (Array.map2 (fun c k -> (c, k)) clauses costs)
      in
      let det = cut_disciplined clauses in
      Hashtbl.replace tbl key
        { key; arity; clauses; costs; sel; cls; dec; unit_cost; unit_hi; det })
    order;
  t

(* ------------------------------------------------------------------ *)
(* Determinacy of a goal's whole call closure. *)

let det_closure t key =
  let seen = Hashtbl.create 16 in
  let rec go k =
    if Hashtbl.mem seen k then true
    else begin
      Hashtbl.replace seen k ();
      (match find t k with Some p -> p.det | None -> false)
      && List.for_all go (Depgraph.callees t.graph k)
    end
  in
  go key

(* ------------------------------------------------------------------ *)
(* Granularity verdicts.

   [threshold] is the spawn overhead in data references: a goal whose
   total cost bound falls below it is not worth a parallel spawn.
   Verdicts only trust a bound when the goal's call closure is
   cut-disciplined -- otherwise backtracking can multiply the
   success-path cost arbitrarily (this is what keeps [queens] and
   [query] parallelism intact). *)

type verdict =
  | Keep  (** worth spawning, or no bound known *)
  | Small  (** statically below the threshold: sequentialize *)
  | Guard of int * int
      (** (argument position, minimum size): data-dependent; spawn
          only when the input reaches the size at which the cost bound
          crosses the threshold *)

(* Integer d-th root, rounded down. *)
let iroot d n =
  if d <= 1 then n
  else begin
    let r = ref 0 in
    while
      let p = ref 1 in
      (try
         for _ = 1 to d do
           p := !p * (!r + 1);
           if !p > n then raise Exit
         done
       with Exit -> ());
      !p <= n
    do
      incr r
    done;
    !r
  end

let max_guard_size = 1024
(* a check_size walk touches up to k cells; beyond this the guard
   itself would rival the spawn overhead *)

let verdict_key t ~threshold key =
  match find t key with
  | None -> Keep
  | Some p -> (
    match p.cls with
    | Constant when det_closure t key && p.unit_hi <= threshold -> Small
    | (Linear | Poly _) when det_closure t key && p.dec <> None -> (
      let i = match p.dec with Some i -> i | None -> 0 in
      let c = max 1 p.unit_cost in
      let n = threshold / c in
      let k =
        match p.cls with
        | Linear -> n
        | Poly d -> iroot d n
        | Constant | Expo | Unknown -> 0
      in
      if k < 2 then Keep else Guard (i, min k max_guard_size))
    | Constant | Linear | Poly _ | Expo | Unknown -> Keep)

let verdict t ~threshold goal =
  match Depgraph.goal_key t.db goal with
  | None -> Keep
  | Some key -> verdict_key t ~threshold key

(* Bridge to the annotator: a position-based [Guard] becomes a
   [size_ge] check on the goal's actual argument.  A variable argument
   gets the run-time check; a ground argument resolves the guard
   statically; a partially instantiated argument could still grow at
   run time, so it conservatively keeps the parallel spawn. *)
let annotator t ~threshold : Term.t -> Prolog.Annotate.verdict =
 fun goal ->
  match verdict t ~threshold goal with
  | Keep -> Prolog.Annotate.Keep
  | Small -> Prolog.Annotate.Small
  | Guard (pos, k) -> (
    match goal with
    | Term.Struct (_, args) -> (
      match List.nth_opt args pos with
      | Some (Term.Var _ as arg) -> Prolog.Annotate.Guard (arg, k)
      | Some arg when Term.is_ground arg ->
        if Term.size arg >= k then Prolog.Annotate.Keep
        else Prolog.Annotate.Small
      | Some _ | None -> Prolog.Annotate.Keep)
    | Term.Atom _ | Term.Int _ | Term.Var _ -> Prolog.Annotate.Keep)
