(* Whole-database success-count analysis.

   Assigns every predicate a {!Lattice.t} solution-count set by a
   fixpoint over the dependency graph: a clause's count is the [seq]
   product over its body goals (a parallel group is a conjunction),
   and a predicate's count folds its clauses with [alt_excl] (set
   union) when the clause commits -- it has a cut, or the
   mutual-exclusion test proves no later clause can succeed on the
   same call -- and [alt] (sum) otherwise.

   Iteration starts every predicate at [Fails] and recomputes in
   dependency order (callees first, via {!Analysis.Depgraph}) until
   nothing changes.  On terminating executions the result
   over-approximates the real solution-count set: iterate [n], the
   table bounds every derivation of call depth <= [n] (depth-exceeded
   calls contribute no solutions, which [Fails] covers), and the
   combinators are monotone.  The domain is finite but the iterates
   need not form a chain, so a round cap widens any still-unstable
   predicate to [Multi]. *)

type key = string * int

let builtin_count (b : Wam.Builtin.t) : Lattice.t =
  match b with
  | True_b | Write_t | Print_t | Nl | Halt_b -> Exactly_one
  | Fail_b -> Fails
  | Is | Lt | Gt | Le | Ge | Arith_eq | Arith_ne | Unify | Not_unify | Term_eq
  | Term_ne | Term_lt | Term_gt | Term_le | Term_ge | Var_p | Nonvar_p
  | Atom_p | Integer_p | Atomic_p | Compound_p | Ground_p | Indep_p
  | Functor_b | Arg_b | Univ ->
    At_most_one

type t = (key, Lattice.t) Hashtbl.t

let find (t : t) key =
  match Hashtbl.find_opt t key with Some c -> c | None -> Lattice.Fails

let of_database ?patterns db : t =
  let graph = Analysis.Depgraph.build db in
  let order = Analysis.Depgraph.topo_order graph in
  let table : t = Hashtbl.create 64 in
  let get key = find table key in
  let goal_count goal =
    match Exclusion.pred_of_goal goal with
    | None -> Lattice.Multi (* metacall: unknown *)
    | Some ("!", 0) | Some ("true", 0) -> Lattice.Exactly_one
    | Some key ->
      if Prolog.Database.has_predicate db key then get key
      else (
        match Wam.Builtin.lookup (fst key) (snd key) with
        | Some b -> builtin_count b
        | None -> Lattice.Fails (* undefined predicate: fails *))
  in
  let item_count = function
    | Prolog.Cge.Lit g -> goal_count g
    | Prolog.Cge.Par { arms; _ } ->
      List.fold_left
        (fun acc a -> Lattice.seq acc (goal_count a))
        Lattice.Exactly_one arms
  in
  let clause_count (c : Prolog.Database.clause) =
    List.fold_left
      (fun acc it -> Lattice.seq acc (item_count it))
      Lattice.Exactly_one c.Prolog.Database.body
  in
  let pred_count key =
    let rec fold = function
      | [] -> Lattice.Fails
      | c :: rest ->
        let cc = clause_count c in
        let committing =
          Exclusion.has_cut db c
          || List.for_all
               (fun c' -> Exclusion.excluded ?patterns ~db ~pred:key c c')
               rest
        in
        let rc = fold rest in
        if committing then Lattice.alt_excl cc rc else Lattice.alt cc rc
    in
    fold (Prolog.Database.clauses db key)
  in
  let user_preds =
    List.filter (Prolog.Database.has_predicate db) order
    @ List.filter
        (fun k -> not (List.mem k order))
        (Prolog.Database.predicates db)
  in
  let max_rounds = (4 * List.length user_preds) + 8 in
  let rounds = ref 0 in
  let changed = ref true in
  while !changed && !rounds < max_rounds do
    changed := false;
    incr rounds;
    List.iter
      (fun key ->
        let c = pred_count key in
        if not (Lattice.equal c (get key)) then begin
          Hashtbl.replace table key c;
          changed := true
        end)
      user_preds
  done;
  if !changed then
    (* did not stabilize: widen anything still moving to top *)
    List.iter
      (fun key ->
        let c = pred_count key in
        if not (Lattice.equal c (get key)) then
          Hashtbl.replace table key Lattice.Multi)
      user_preds;
  table

(* Per-predicate report rows, in database order. *)
let report db (t : t) =
  List.map (fun key -> (key, find t key)) (Prolog.Database.predicates db)
