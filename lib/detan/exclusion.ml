(* Clause-level mutual-exclusion test and chain certification.

   A try/retry/trust chain may run choice-point-free (shallow, in
   registers) exactly when no alternative below the committing clause
   can ever be needed.  The machine commits a shallow frame at the
   clause's first committing instruction -- a user call, a neck cut, a
   parcall, or proceed -- so a chain [c1..cn] is certified when every
   non-last clause [ci] satisfies one of:

   - cut_leads: [ci]'s body reaches a cut before any user call or
     parcall.  Committing at the neck_cut is then exactly the cut's
     own semantics (discard the alternatives), unconditionally sound.

   - excluded(ci, cj) for every later [cj]: whenever [ci] commits, no
     [cj] could have succeeded on the same call, proved either

     (a) structurally: some argument position is ground at every call
         (per the groundness analysis) and the two heads carry
         distinct principal functors there, or

     (b) by complementary arithmetic guards: [ci] passes a comparison
         before it commits and [cj] must pass its complement to
         succeed, over the same call subterms.  Guard operands are
         normalized by replacing head variables with their
         first-occurrence paths in the head, so [p(X,Y) :- X < Y, ...]
         and [p(X,Y) :- X >= Y, ...] compare equal modulo the
         complement.  Soundness: a comparison only succeeds on bound
         numbers, and a head variable's value at a path comes from the
         call, so if [ci]'s guard passed, [cj] evaluating the
         complement over the same paths must fail (or fail earlier in
         head unification).

   The [any_cut] / [sloppy_guards] flags weaken these rules on
   purpose: they are the seeded defects the dynamic oracle must
   catch. *)

type goal_class =
  | G_cut
  | G_true
  | G_guard of Prolog.Term.t  (** a builtin: cannot commit a shallow frame *)
  | G_commit  (** user call, parcall or metacall: commits *)

let classify db goal =
  match Prolog.Term.functor_of goal with
  | None -> G_commit
  | Some ("!", 0) -> G_cut
  | Some ("true", 0) -> G_true
  | Some (name, arity) ->
    if Prolog.Database.has_predicate db (name, arity) then G_commit
    else (
      match Wam.Builtin.lookup name arity with
      | Some _ -> G_guard goal
      | None -> G_commit)

(* Body items flattened to goal classes; a parallel group commits at
   its alloc_parcall. *)
let classes db (body : Prolog.Cge.body) =
  List.map
    (function
      | Prolog.Cge.Lit g -> classify db g
      | Prolog.Cge.Par _ -> G_commit)
    body

(* Does the clause reach a cut before anything that commits? *)
let cut_leads db (c : Prolog.Database.clause) =
  let rec scan = function
    | [] -> false
    | G_cut :: _ -> true
    | G_commit :: _ -> false
    | (G_true | G_guard _) :: rest -> scan rest
  in
  scan (classes db c.body)

(* Is there a cut anywhere in the body?  (The [any_cut] defect uses
   this in place of [cut_leads]: unsound, because a commit before the
   cut elides alternatives the cut never reached.) *)
let has_cut db (c : Prolog.Database.clause) =
  List.exists (function G_cut -> true | _ -> false) (classes db c.body)

(* ------------------------------------------------------------------ *)
(* Arithmetic-guard complementarity.                                  *)

let arith_ops = [ "<"; ">"; "=<"; ">="; "=:="; "=\\=" ]

let complement_op = function
  | "<" -> Some ">="
  | ">=" -> Some "<"
  | ">" -> Some "=<"
  | "=<" -> Some ">"
  | "=:=" -> Some "=\\="
  | "=\\=" -> Some "=:="
  | _ -> None

(* [a OP b] is [b (swap OP) a]. *)
let swap_op = function
  | "<" -> ">"
  | ">" -> "<"
  | "=<" -> ">="
  | ">=" -> "=<"
  | op -> op (* =:= and =\= are symmetric *)

let is_arith_guard = function
  | Prolog.Term.Struct (op, [ _; _ ]) -> List.mem op arith_ops
  | _ -> false

(* Arithmetic comparisons in the prefix of the body that must run
   before the clause commits ([ci]'s side: stop at the first cut too,
   a neck_cut commits the frame before later guards are tested). *)
let commit_prefix_guards db (c : Prolog.Database.clause) =
  let rec scan acc = function
    | [] -> List.rev acc
    | (G_cut | G_commit) :: _ -> List.rev acc
    | G_guard g :: rest -> scan (if is_arith_guard g then g :: acc else acc) rest
    | G_true :: rest -> scan acc rest
  in
  scan [] (classes db c.body)

(* Arithmetic comparisons every success of the clause must pass
   ([cj]'s side: a guard behind a cut still gates success, but stay
   conservative and stop at the first committing goal, whose outputs
   later guards may depend on). *)
let success_prefix_guards db (c : Prolog.Database.clause) =
  let rec scan acc = function
    | [] -> List.rev acc
    | G_commit :: _ -> List.rev acc
    | G_guard g :: rest -> scan (if is_arith_guard g then g :: acc else acc) rest
    | (G_cut | G_true) :: rest -> scan acc rest
  in
  scan [] (classes db c.body)

(* First-occurrence path of every head variable: argument position
   followed by child indices.  Two clauses matching the same call see
   the same call subterm at equal paths (or one of them fails head
   unification before reaching it). *)
let head_var_paths (head : Prolog.Term.t) =
  let tbl = Hashtbl.create 8 in
  let rec go path t =
    match t with
    | Prolog.Term.Var v ->
      if not (Hashtbl.mem tbl v) then Hashtbl.add tbl v (List.rev path)
    | Prolog.Term.Atom _ | Prolog.Term.Int _ -> ()
    | Prolog.Term.Struct (_, args) ->
      List.iteri (fun i a -> go (i :: path) a) args
  in
  (match head with
  | Prolog.Term.Struct (_, args) -> List.iteri (fun i a -> go [ i ] a) args
  | Prolog.Term.Atom _ | Prolog.Term.Int _ | Prolog.Term.Var _ -> ());
  tbl

(* Rewrite a guard operand replacing head variables by path markers;
   [None] if it mentions a variable not bound by the head (e.g. the
   output of an earlier [is]), which we cannot relate across
   clauses. *)
let rec normalize paths t =
  match t with
  | Prolog.Term.Var v -> (
    match Hashtbl.find_opt paths v with
    | Some path ->
      Some (Prolog.Term.Struct ("$path", List.map (fun i -> Prolog.Term.Int i) path))
    | None -> None)
  | Prolog.Term.Atom _ | Prolog.Term.Int _ -> Some t
  | Prolog.Term.Struct (f, args) ->
    let rec all acc = function
      | [] -> Some (List.rev acc)
      | a :: rest -> (
        match normalize paths a with
        | Some a' -> all (a' :: acc) rest
        | None -> None)
    in
    (match all [] args with
    | Some args' -> Some (Prolog.Term.Struct (f, args'))
    | None -> None)

let normalized_guard paths g =
  match g with
  | Prolog.Term.Struct (op, [ a; b ]) when List.mem op arith_ops -> (
    match (normalize paths a, normalize paths b) with
    | Some a', Some b' -> Some (op, a', b')
    | _ -> None)
  | _ -> None

(* [sloppy] drops the operand comparison (seeded defect): [X < Y] then
   counts as the complement of any [>=] guard. *)
let complementary ~sloppy (op1, a1, b1) (op2, a2, b2) =
  match complement_op op1 with
  | None -> false
  | Some c ->
    let direct = c = op2 && (sloppy || (Prolog.Term.equal a1 a2 && Prolog.Term.equal b1 b2)) in
    let swapped =
      swap_op c = op2 && (sloppy || (Prolog.Term.equal a1 b2 && Prolog.Term.equal b1 a2))
    in
    direct || swapped

let guard_excluded ~sloppy db ci cj =
  let g1s =
    let paths = head_var_paths ci.Prolog.Database.head in
    List.filter_map (normalized_guard paths) (commit_prefix_guards db ci)
  in
  let g2s =
    let paths = head_var_paths cj.Prolog.Database.head in
    List.filter_map (normalized_guard paths) (success_prefix_guards db cj)
  in
  List.exists (fun g1 -> List.exists (fun g2 -> complementary ~sloppy g1 g2) g2s) g1s

(* ------------------------------------------------------------------ *)
(* Structural disjointness.                                           *)

let principal = function
  | Prolog.Term.Atom a -> Some (`Con a)
  | Prolog.Term.Int n -> Some (`Int n)
  | Prolog.Term.Struct (f, args) -> Some (`Str (f, List.length args))
  | Prolog.Term.Var _ -> None

(* Argument positions the analysis proves ground at every call. *)
let ground_positions ?patterns (name, arity) =
  match patterns with
  | None -> []
  | Some pats -> (
    match Prolog.Abspat.find pats ~name ~arity with
    | None -> []
    | Some entry ->
      let out = ref [] in
      Array.iteri
        (fun i g -> if g = Prolog.Abspat.Ground then out := i :: !out)
        entry.Prolog.Abspat.call.Prolog.Abspat.args;
      List.rev !out)

let struct_excluded ?patterns ~pred ci cj =
  let a1 = Array.of_list (Prolog.Term.args ci.Prolog.Database.head) in
  let a2 = Array.of_list (Prolog.Term.args cj.Prolog.Database.head) in
  List.exists
    (fun p ->
      p < Array.length a1
      && p < Array.length a2
      &&
      match (principal a1.(p), principal a2.(p)) with
      | Some k1, Some k2 -> k1 <> k2
      | _ -> false)
    (ground_positions ?patterns pred)

let excluded ?patterns ?(sloppy_guards = false) ~db ~pred ci cj =
  struct_excluded ?patterns ~pred ci cj
  || guard_excluded ~sloppy:sloppy_guards db ci cj

(* ------------------------------------------------------------------ *)
(* Chain certification.                                               *)

let certify_chain ?patterns ?(any_cut = false) ?(sloppy_guards = false) ~db
    ~pred clauses =
  let arr = Array.of_list clauses in
  let n = Array.length arr in
  let rec ok i =
    i >= n - 1
    || ((if any_cut then has_cut db arr.(i) else cut_leads db arr.(i))
        ||
        let rec against j =
          j >= n
          || (excluded ?patterns ~sloppy_guards ~db ~pred arr.(i) arr.(j)
              && against (j + 1))
        in
        against (i + 1))
       && ok (i + 1)
  in
  n >= 2 && ok 0

(* First argument provably bound at every call: the switch_on_term
   variable-dispatch chain is dead. *)
let dead_var ?patterns (name, arity) =
  arity >= 1
  &&
  match patterns with
  | None -> false
  | Some pats -> (
    match Prolog.Abspat.find pats ~name ~arity with
    | None -> false
    | Some entry ->
      entry.Prolog.Abspat.call.Prolog.Abspat.args.(0) = Prolog.Abspat.Ground)

(* ------------------------------------------------------------------ *)
(* The compiler plan.  The optional flags are the seeded defects (see
   {!Defects}); all off = the sound analysis. *)

let plan ?(force_certify = false) ?(any_cut = false) ?(sloppy_guards = false)
    ?(blind_var = false) ?(orphan = false) ?patterns () =
  {
    Wam.Compile.det_certify =
      (fun ~db ~pred ~bucket:_ clauses ->
        if force_certify then List.length clauses > 1
        else certify_chain ?patterns ~any_cut ~sloppy_guards ~db ~pred clauses);
    det_dead_var = (fun key -> blind_var || dead_var ?patterns key);
    det_orphan_sabotage = orphan;
  }
