(* Concrete interval evaluation: abstract execution of one query.

   The recurrence classes say how a predicate's cost *grows*; this
   module computes what one specific query actually *costs*, by
   executing the program over an argument-size domain seeded from the
   query's concrete terms:

     Unb        an unbound, unaliased variable (an output);
     Conc t     a fully ground term, kept concrete -- head matching,
                arithmetic and comparisons all decide exactly;
     Part f svs a structure with a known functor but holes
                (difference-list tails, serialise's pair values);
     Abs info   only sizes known: term size, list length, or an
                integer range -- the join of diverging branches.

   Evaluation follows first-solution semantics with an explicit
   honesty gate: a goal that fails (or may fail) after a
   nondeterministic goal in the same clause would force backtracking
   whose extent no size argument bounds, so the evaluator gives up
   ([queens], [query]) rather than underestimate.  Deterministic
   failure is fine and costed (the fall-through of [deriv]'s
   failure-driven driver, guard clauses in [partition]).

   Costs: one resolution step per user-goal invocation (matching the
   machine's inference counter, which ticks on call/execute only) and,
   per entered clause, the static per-instruction footprint table from
   {!Footprint}.  Memoized on (predicate, argument values); a fuel
   budget bounds pathological queries. *)

open Domain
module Term = Prolog.Term
module Cge = Prolog.Cge
module Database = Prolog.Database

exception Give_up of string

(* Signed value ranges for integer arguments (Domain.interval is
   non-negative and saturating; counts and sizes only). *)
type vrange = { vlo : int; vhi : int }

type sval =
  | Unb
  | Conc of Term.t
  | Part of string * sval list
  | Abs of absinfo

and absinfo = {
  a_size : interval option;
  a_len : interval option;
  a_val : vrange option;
}

let abs_top = Abs { a_size = None; a_len = None; a_val = None }
let abs_int v = Abs { a_size = Some (point 1); a_len = None; a_val = v }

let is_conc = function Conc _ -> true | _ -> false
let conc_term = function Conc t -> t | _ -> assert false

let rec size_of = function
  | Unb -> itv 1 cap
  | Conc t -> point (Term.size t)
  | Part (_, svs) ->
    List.fold_left (fun acc sv -> add acc (size_of sv)) (point 1) svs
  | Abs { a_size = Some s; _ } -> s
  | Abs _ -> itv 1 cap

let rec len_of = function
  | Conc t -> (
    match Term.to_list t with
    | Some l -> Some (point (List.length l))
    | None -> None)
  | Part (".", [ _; tl ]) -> (
    match len_of tl with Some l -> Some (shift 1 l) | None -> None)
  | Abs { a_len; _ } -> a_len
  | Unb | Part _ -> None

let val_of = function
  | Conc (Term.Int n) -> Some { vlo = n; vhi = n }
  | Abs { a_val; _ } -> a_val
  | _ -> None

(* Build the value of a term under an environment.  Collapses to Conc
   when every leaf is ground, keeps the spine as Part otherwise. *)
let rec build env (t : Term.t) : sval =
  match t with
  | Term.Atom _ | Term.Int _ -> Conc t
  | Term.Var v -> (
    match Hashtbl.find_opt env v with Some sv -> sv | None -> Unb)
  | Term.Struct (f, args) ->
    let svs = List.map (build env) args in
    if List.for_all is_conc svs then
      Conc (Term.Struct (f, List.map conc_term svs))
    else Part (f, svs)

(* ------------------------------------------------------------------ *)
(* Matching (one-sided unification: clause-head pattern against an
   argument value, binding the pattern's variables). *)

type tri = Yes | No | Maybe

let tri_and a b =
  match (a, b) with
  | No, _ | _, No -> No
  | Maybe, _ | _, Maybe -> Maybe
  | Yes, Yes -> Yes

let tri_not = function Yes -> No | No -> Yes | Maybe -> Maybe

(* Unification of two already-built values, as a test (no variable
   identity inside Part holes, so aliasing is not tracked; Unb
   unifies with anything). *)
let rec unify_sv a b =
  match (a, b) with
  | Unb, _ | _, Unb -> Yes
  | Conc x, Conc y -> if Term.equal x y then Yes else No
  | Conc (Term.Struct (f, xs)), Part (g, ys)
  | Part (g, ys), Conc (Term.Struct (f, xs)) ->
    if String.equal f g && List.length xs = List.length ys then
      List.fold_left2
        (fun acc x y -> tri_and acc (unify_sv (Conc x) y))
        Yes xs ys
    else No
  | Conc _, Part _ | Part _, Conc _ -> No
  | Part (f, xs), Part (g, ys) ->
    if String.equal f g && List.length xs = List.length ys then
      List.fold_left2 (fun acc x y -> tri_and acc (unify_sv x y)) Yes xs ys
    else No
  | Abs i, other | other, Abs i -> abs_vs i other

and abs_vs info other =
  (* no contradiction checkable beyond coarse shape tests *)
  match other with
  | Conc (Term.Int n) -> (
    match info.a_val with
    | Some { vlo; vhi } ->
      if vlo = n && vhi = n then Yes
      else if n < vlo || n > vhi then No
      else Maybe
    | None -> if info.a_len <> None then No else Maybe)
  | _ -> Maybe

let refine old sv =
  match (old, sv) with
  | Unb, _ -> sv
  | Conc _, _ -> old
  | _, Conc _ -> sv
  | _ -> old

let dec_len l = itv (max 0 (l.lo - 1)) (max 0 (l.hi - 1))

(* Match pattern [pat] against value [sv], binding pattern variables in
   [env].  Matching an unbound value is construction and always
   succeeds (the pattern's fresh variables stay unbound). *)
let rec match_pat env (pat : Term.t) (sv : sval) : tri =
  match pat with
  | Term.Var v -> (
    match Hashtbl.find_opt env v with
    | None ->
      Hashtbl.replace env v sv;
      Yes
    | Some old ->
      let r = unify_sv old sv in
      if r <> No then Hashtbl.replace env v (refine old sv);
      r)
  | Term.Atom a -> (
    match sv with
    | Unb -> Yes
    | Conc (Term.Atom b) -> if String.equal a b then Yes else No
    | Conc _ | Part _ -> No
    | Abs info -> (
      if info.a_val <> None then No
      else
        match info.a_len with
        | Some l when String.equal a "[]" ->
          if l.hi = 0 then Yes else if l.lo >= 1 then No else Maybe
        | Some _ -> No
        | None -> (
          match info.a_size with
          | Some s when s.lo > 1 -> No
          | _ -> Maybe)))
  | Term.Int n -> (
    match sv with
    | Unb -> Yes
    | Conc (Term.Int m) -> if n = m then Yes else No
    | Conc _ | Part _ -> No
    | Abs info -> abs_vs info (Conc (Term.Int n)))
  | Term.Struct (f, pargs) -> (
    let arity = List.length pargs in
    match sv with
    | Unb -> Yes (* construction *)
    | Conc (Term.Struct (g, targs))
      when String.equal f g && List.length targs = arity ->
      List.fold_left2
        (fun acc p a -> tri_and acc (match_pat env p (Conc a)))
        Yes pargs targs
    | Conc _ -> No
    | Part (g, svs) when String.equal f g && List.length svs = arity ->
      List.fold_left2
        (fun acc p a -> tri_and acc (match_pat env p a))
        Yes pargs svs
    | Part _ -> No
    | Abs info -> (
      if info.a_val <> None then No
      else
        match (f, pargs, info.a_len) with
        | ".", [ ph; pt ], Some l ->
          if l.hi = 0 then No
          else
            let sub =
              tri_and
                (match_pat env ph abs_top)
                (match_pat env pt
                   (Abs
                      {
                        a_size = None;
                        a_len = Some (dec_len l);
                        a_val = None;
                      }))
            in
            if l.lo >= 1 then sub else tri_and Maybe sub
        | _, _, Some _ -> No (* a proper list has no other functor *)
        | _, _, None -> (
          match info.a_size with
          | Some s when s.hi < 1 + arity -> No
          | Some s ->
            let inner = itv 1 (max 1 (s.hi - arity)) in
            List.iter
              (fun p ->
                ignore
                  (match_pat env p
                     (Abs
                        { a_size = Some inner; a_len = None; a_val = None })))
              pargs;
            Maybe
          | None ->
            List.iter (fun p -> ignore (match_pat env p abs_top)) pargs;
            Maybe)))

(* ------------------------------------------------------------------ *)
(* Arithmetic over value ranges. *)

let vcap = 1 lsl 60
let vsat n = if n > vcap then vcap else if n < -vcap then -vcap else n
let vpoint n = { vlo = n; vhi = n }

let rec arith env (t : Term.t) : vrange option =
  match t with
  | Term.Int n -> Some (vpoint n)
  | Term.Var _ -> val_of (build env t)
  | Term.Struct ("-", [ a ]) -> (
    match arith env a with
    | Some r -> Some { vlo = vsat (-r.vhi); vhi = vsat (-r.vlo) }
    | None -> None)
  | Term.Struct (op, [ a; b ]) -> (
    match (arith env a, arith env b) with
    | Some x, Some y -> (
      let pt f = Some (vpoint (vsat (f x.vlo y.vlo))) in
      let exact = x.vlo = x.vhi && y.vlo = y.vhi in
      match op with
      | "+" -> Some { vlo = vsat (x.vlo + y.vlo); vhi = vsat (x.vhi + y.vhi) }
      | "-" -> Some { vlo = vsat (x.vlo - y.vhi); vhi = vsat (x.vhi - y.vlo) }
      | "*" ->
        let c = [ x.vlo * y.vlo; x.vlo * y.vhi; x.vhi * y.vlo; x.vhi * y.vhi ] in
        Some
          {
            vlo = vsat (List.fold_left min max_int c);
            vhi = vsat (List.fold_left max min_int c);
          }
      | "//" when exact && y.vlo <> 0 -> pt (fun a b -> a / b)
      | "mod" when exact && y.vlo <> 0 ->
        pt (fun a b ->
            let r = a mod b in
            if r <> 0 && r * b < 0 then r + b else r)
      | _ -> None)
    | _ -> None)
  | Term.Atom _ | Term.Struct _ -> None

let cmp_tri op (x : vrange) (y : vrange) =
  let decide lt_all ge_all = if lt_all then Yes else if ge_all then No else Maybe in
  match op with
  | "<" -> decide (x.vhi < y.vlo) (x.vlo >= y.vhi)
  | ">" -> decide (x.vlo > y.vhi) (x.vhi <= y.vlo)
  | "=<" -> decide (x.vhi <= y.vlo) (x.vlo > y.vhi)
  | ">=" -> decide (x.vlo >= y.vhi) (x.vhi < y.vlo)
  | "=:=" ->
    if x.vlo = x.vhi && y.vlo = y.vhi then if x.vlo = y.vlo then Yes else No
    else if x.vhi < y.vlo || y.vhi < x.vlo then No
    else Maybe
  | "=\\=" ->
    tri_not
      (if x.vlo = x.vhi && y.vlo = y.vhi then if x.vlo = y.vlo then Yes else No
       else if x.vhi < y.vlo || y.vhi < x.vlo then No
       else Maybe)
  | _ -> Maybe

(* ------------------------------------------------------------------ *)
(* Joining results across clauses. *)

let rec join_sv a b =
  match (a, b) with
  | Conc x, Conc y when Term.equal x y -> a
  | Part (f, xs), Part (g, ys)
    when String.equal f g && List.length xs = List.length ys ->
    Part (f, List.map2 join_sv xs ys)
  | Unb, Unb -> Unb
  | _ ->
    let jopt f =
      match (f a, f b) with Some x, Some y -> Some (join x y) | _ -> None
    in
    let jval =
      match (val_of a, val_of b) with
      | Some x, Some y ->
        Some { vlo = min x.vlo y.vlo; vhi = max x.vhi y.vhi }
      | _ -> None
    in
    Abs
      {
        a_size = jopt (fun sv -> Some (size_of sv));
        a_len = jopt len_of;
        a_val = jval;
      }

(* ------------------------------------------------------------------ *)

type ores = {
  o_tri : tri;
  o_steps : interval;  (** inferences spent (attempted, on failure) *)
  o_refs : Footprint.t;
  o_nondet : bool;  (** may leave a viable alternative behind *)
  o_outs : sval array;
}

type state = {
  an : Analyze.t;
  memo : (Analyze.key * sval list, ores) Hashtbl.t;
  mutable fuel : int;
  mutable evals : int;
}

(* A clause-body evaluation outcome. *)
type cres =
  | Cok of {
      tri : tri;
      steps : interval;
      refs : Footprint.t;
      nondet : bool;
      committed : bool;
      env : (string, sval) Hashtbl.t;
    }
  | Cfail of { steps : interval; refs : Footprint.t; committed : bool }

let rec eval_pred st (key : Analyze.key) (args : sval array) : ores =
  let mkey = (key, Array.to_list args) in
  match Hashtbl.find_opt st.memo mkey with
  | Some r -> r
  | None ->
    if st.fuel <= 0 then raise (Give_up "evaluation budget exhausted");
    st.fuel <- st.fuel - 1;
    st.evals <- st.evals + 1;
    let p =
      match Analyze.find st.an key with
      | Some p -> p
      | None -> raise (Give_up (Printf.sprintf "no info for %s/%d" (fst key) (snd key)))
    in
    let r = eval_clauses st p args in
    Hashtbl.replace st.memo mkey r;
    r

and head_match p args ci =
  let env = Hashtbl.create 8 in
  let pats = Array.of_list (Term.args p.Analyze.clauses.(ci).Database.head) in
  let tri = ref Yes in
  Array.iteri
    (fun i pat ->
      if !tri <> No then
        tri := tri_and !tri (match_pat env pat (if i < Array.length args then args.(i) else Unb)))
    pats;
  (!tri, env)

and eval_clauses st (p : Analyze.pinfo) args : ores =
  let n = Array.length p.Analyze.clauses in
  let acc_steps = ref zero in
  let acc_refs = ref (Footprint.nil ()) in
  let candidates = ref [] in
  (* (tri, steps, refs, nondet, committed, outs) *)
  let result = ref None in
  let later_matches ci =
    let rec go j =
      if j >= n then false
      else
        let tri, _ = head_match p args j in
        if tri <> No then true else go (j + 1)
    in
    go (ci + 1)
  in
  (try
     for ci = 0 to n - 1 do
       let head_tri, env = head_match p args ci in
       if head_tri <> No then begin
         match eval_body st p ci env head_tri with
         | Cfail { steps; refs; committed } ->
           acc_steps := add !acc_steps steps;
           acc_refs := Footprint.sum !acc_refs refs;
           if committed && head_tri = Yes then begin
             result :=
               Some
                 {
                   o_tri = No;
                   o_steps = !acc_steps;
                   o_refs = !acc_refs;
                   o_nondet = false;
                   o_outs = [||];
                 };
             raise Exit
           end
         | Cok c ->
           let outs =
             Array.map (fun pat -> build c.env pat)
               (Array.of_list (Term.args p.Analyze.clauses.(ci).Database.head))
           in
           let tri = tri_and head_tri c.tri in
           if tri = Yes then begin
             (* first solution found; alternatives left behind make the
                call nondeterministic even though we stop here *)
             let viable =
               c.nondet || ((not c.committed) && later_matches ci)
             in
             candidates :=
               (tri, c.steps, c.refs, viable, c.committed, outs)
               :: !candidates;
             raise Exit
           end
           else
             candidates :=
               (tri, c.steps, c.refs, c.nondet, c.committed, outs)
               :: !candidates
       end
     done
   with Exit -> ());
  match !result with
  | Some r -> r
  | None -> (
    match List.rev !candidates with
    | [] ->
      {
        o_tri = No;
        o_steps = !acc_steps;
        o_refs = !acc_refs;
        o_nondet = false;
        o_outs = [||];
      }
    | cands ->
      let last_tri, _, _, _, _, _ = List.nth cands (List.length cands - 1) in
      let tri = if last_tri = Yes then Yes else Maybe in
      (* candidates are tried in order until one sticks: the cost is at
         least the first attempted, at most all of them *)
      let steps =
        List.fold_left
          (fun acc (_, s, _, _, _, _) ->
            match acc with
            | None -> Some s
            | Some a -> Some { lo = min a.lo s.lo; hi = sat (a.hi + s.hi) })
          None cands
        |> Option.get
      in
      let refs =
        List.fold_left
          (fun acc (_, _, r, _, _, _) ->
            match acc with
            | None -> Some r
            | Some a ->
              Some
                (Array.init Trace.Area.count (fun i ->
                     {
                       lo = min a.(i).lo r.(i).lo;
                       hi = sat (a.(i).hi + r.(i).hi);
                     })))
          None cands
        |> Option.get
      in
      let nondet =
        List.length cands > 1
        || List.exists (fun (_, _, _, nd, _, _) -> nd) cands
      in
      let outs =
        match cands with
        | (_, _, _, _, _, o) :: rest ->
          List.fold_left
            (fun acc (_, _, _, _, _, o) ->
              if Array.length acc = Array.length o then Array.map2 join_sv acc o
              else acc)
            o rest
        | [] -> [||]
      in
      {
        o_tri = tri;
        o_steps = add !acc_steps steps;
        o_refs = Footprint.sum !acc_refs refs;
        o_nondet = nondet;
        o_outs = outs;
      })

and eval_body st (p : Analyze.pinfo) ci env head_tri : cres =
  let db = Analyze.database st.an in
  let clause = p.Analyze.clauses.(ci) in
  let cost = p.Analyze.costs.(ci) in
  let steps = ref zero in
  let refs = ref (Footprint.copy cost.Footprint.refs) in
  let nondet = ref false in
  let committed = ref false in
  let tri_acc = ref Yes in
  let definite = ref (head_tri = Yes) in
  let fail_with () =
    (* the clause's suffix after the failing goal never ran: keep the
       upper bound but halve the floor *)
    let refs =
      Array.map (fun i -> { lo = i.lo / 2; hi = i.hi }) !refs
    in
    Cfail { steps = !steps; refs; committed = !committed }
  in
  let exception Clause_failed in
  let handle_goal g =
    match g with
    | Term.Atom "!" ->
      if !definite then begin
        committed := true;
        nondet := false
      end
    | Term.Var _ -> raise (Give_up "call through a variable")
    | _ -> (
      match Analysis.Depgraph.goal_key db g with
      | Some gk ->
        let gargs = Term.args g in
        let svals = Array.of_list (List.map (build env) gargs) in
        let sub = eval_pred st gk svals in
        steps := add !steps (add (point 1) sub.o_steps);
        refs := Footprint.sum !refs (Footprint.sum (sel_of st gk) sub.o_refs);
        (match sub.o_tri with
        | No ->
          if !nondet then
            raise (Give_up "failure after a nondeterministic goal");
          raise Clause_failed
        | Maybe ->
          if !nondet then
            raise (Give_up "possible failure after a nondeterministic goal");
          tri_acc := Maybe;
          definite := false;
          bind_outs env gargs sub.o_outs
        | Yes ->
          nondet := !nondet || sub.o_nondet;
          bind_outs env gargs sub.o_outs)
      | None -> (
        match eval_builtin env g with
        | Yes -> ()
        | No ->
          if !nondet then
            raise (Give_up "failure after a nondeterministic goal");
          raise Clause_failed
        | Maybe ->
          if !nondet then
            raise (Give_up "possible failure after a nondeterministic goal");
          tri_acc := Maybe;
          definite := false))
  in
  try
    List.iter
      (function
        | Cge.Lit g -> handle_goal g
        | Cge.Par { arms; _ } -> List.iter handle_goal arms)
      clause.Prolog.Database.body;
    Cok
      {
        tri = !tri_acc;
        steps = !steps;
        refs = !refs;
        nondet = !nondet;
        committed = !committed;
        env;
      }
  with Clause_failed -> fail_with ()

and sel_of st gk =
  match Analyze.find st.an gk with
  | Some p -> p.Analyze.sel
  | None -> Footprint.nil ()

(* After a callee succeeds, propagate its outputs into the caller's
   still-unbound goal-argument variables. *)
and bind_outs env gargs outs =
  List.iteri
    (fun i arg ->
      if i < Array.length outs then
        match arg with
        | Term.Var v -> (
          match Hashtbl.find_opt env v with
          | None | Some Unb -> Hashtbl.replace env v outs.(i)
          | Some old -> Hashtbl.replace env v (refine old outs.(i)))
        | _ -> ())
    gargs

and eval_builtin env g : tri =
  let f = match Term.functor_of g with Some (f, _) -> f | None -> "" in
  let args = Term.args g in
  match (f, args) with
  | "true", [] -> Yes
  | ("fail" | "false"), [] -> No
  | "is", [ lhs; rhs ] -> (
    match arith env rhs with
    | Some r when r.vlo = r.vhi -> match_pat env lhs (Conc (Term.Int r.vlo))
    | Some r -> match_pat env lhs (abs_int (Some r))
    | None -> match_pat env lhs (abs_int None))
  | (("<" | ">" | "=<" | ">=" | "=:=" | "=\\=") as op), [ a; b ] -> (
    match (arith env a, arith env b) with
    | Some x, Some y -> cmp_tri op x y
    | _ -> Maybe)
  | "=", [ a; b ] -> match_pat env a (build env b)
  | "\\=", [ a; b ] ->
    (* as a test only; run on throwaway bindings *)
    let env' = Hashtbl.copy env in
    tri_not (match_pat env' a (build env' b))
  | "==", [ a; b ] -> (
    match (build env a, build env b) with
    | Conc x, Conc y -> if Term.equal x y then Yes else No
    | _ -> Maybe)
  | "\\==", [ a; b ] -> (
    match (build env a, build env b) with
    | Conc x, Conc y -> if Term.equal x y then No else Yes
    | _ -> Maybe)
  | ("@<" | "@>" | "@=<" | "@>="), [ _; _ ] -> Maybe
  | "var", [ a ] -> (
    match build env a with Unb -> Yes | Conc _ | Part _ -> No | Abs _ -> Maybe)
  | "nonvar", [ a ] -> (
    match build env a with Unb -> No | Conc _ | Part _ -> Yes | Abs _ -> Maybe)
  | "atom", [ a ] -> (
    match build env a with
    | Conc (Term.Atom _) -> Yes
    | Conc _ | Part _ | Unb -> No
    | Abs _ -> Maybe)
  | "integer", [ a ] -> (
    match build env a with
    | Conc (Term.Int _) -> Yes
    | Abs { a_val = Some _; _ } -> Yes
    | Conc _ | Part _ | Unb -> No
    | Abs _ -> Maybe)
  | "atomic", [ a ] -> (
    match build env a with
    | Conc (Term.Atom _) | Conc (Term.Int _) -> Yes
    | Abs { a_val = Some _; _ } -> Yes
    | Conc _ | Part _ | Unb -> No
    | Abs _ -> Maybe)
  | "compound", [ a ] -> (
    match build env a with
    | Conc (Term.Struct _) | Part _ -> Yes
    | Conc _ | Unb -> No
    | Abs _ -> Maybe)
  | "ground", [ a ] ->
    let rec g = function
      | Conc _ -> Yes
      | Unb -> No
      | Part (_, svs) -> List.fold_left (fun acc sv -> tri_and acc (g sv)) Yes svs
      | Abs _ -> Maybe
    in
    g (build env a)
  | ("write" | "print"), [ _ ] | "nl", [] -> Yes
  | "indep", [ _; _ ] -> Maybe
  | ("functor" | "arg" | "=.."), _ -> Maybe
  | _ ->
    raise
      (Give_up
         (Printf.sprintf "unsupported builtin %s/%d" f (List.length args)))

(* ------------------------------------------------------------------ *)
(* Whole-query prediction. *)

type prediction = {
  p_steps : interval;  (** resolution steps (machine inferences) *)
  p_refs : Footprint.t;  (** per-area references, Code included *)
  p_evals : int;  (** distinct abstract activations evaluated *)
  p_exactness : tri;  (** Yes: every branch decided *)
}

let default_budget = 400_000

let predict ?(budget = default_budget) an (query : Term.t) :
    (prediction, string) result =
  let db = Analyze.database an in
  let st = { an; memo = Hashtbl.create 1024; fuel = budget; evals = 0 } in
  let env = Hashtbl.create 8 in
  let goals = Term.conjuncts query in
  let steps = ref zero in
  let refs = ref (Footprint.nil ()) in
  let tri = ref Yes in
  (* query bootstrap: argument encoding writes one heap cell per
     encoded cell; the query's own put/call code is a handful of
     fetches *)
  let cells =
    List.fold_left
      (fun acc g ->
        let args = Term.args g in
        List.fold_left (fun a t -> a + Footprint.encoded_cells t) acc args)
      0 goals
  in
  Footprint.add_area !refs Trace.Area.Heap (point cells);
  Footprint.add_area !refs Trace.Area.Code
    (itv (1 + List.length goals) (3 + cells + (3 * List.length goals)));
  try
    List.iter
      (fun g ->
        match Analysis.Depgraph.goal_key db g with
        | Some gk ->
          let gargs = Term.args g in
          let svals = Array.of_list (List.map (build env) gargs) in
          let sub = eval_pred st gk svals in
          steps := add !steps (add (point 1) sub.o_steps);
          refs := Footprint.sum !refs (Footprint.sum (sel_of st gk) sub.o_refs);
          (match sub.o_tri with
          | No -> raise (Give_up "query predicted to fail")
          | Maybe -> tri := Maybe
          | Yes -> ());
          bind_outs env gargs sub.o_outs
        | None -> (
          match eval_builtin env g with
          | No -> raise (Give_up "query predicted to fail")
          | Maybe -> tri := Maybe
          | Yes -> ()))
      goals;
    Ok
      {
        p_steps = !steps;
        p_refs = !refs;
        p_evals = st.evals;
        p_exactness = !tri;
      }
  with Give_up reason -> Error reason
