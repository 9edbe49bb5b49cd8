(* The fixpoint engine: top-down call-pattern propagation and
   bottom-up success-pattern computation, iterated over a worklist
   until stable.

   Entries (queries) are modeled as pseudo-predicates with negative
   arity keys so they sit in the same worklist as real predicates and
   re-execute when a callee's success pattern changes. *)

type key = string * int

type outcome = {
  patterns : Prolog.Abspat.t;
  iterations : int;
  widened : int;
  open_world : bool;
}

type t = {
  db : Prolog.Database.t;
  call : (key, Prolog.Abspat.pattern) Hashtbl.t;
  succ : (key, Prolog.Abspat.pattern) Hashtbl.t; (* absent = bottom *)
  callers : (key, key list ref) Hashtbl.t;
  entries : (int, Prolog.Term.t) Hashtbl.t;
  queue : key Queue.t;
  queued : (key, unit) Hashtbl.t;
  recompute : (key, int) Hashtbl.t;
  mutable iterations : int;
  mutable widened : int;
}

(* Recomputations of one predicate before it is widened to top. *)
let widen_after = 40

let entry_key i : key = ("$entry", -(i + 1))
let is_entry (_, arity) = arity < 0

let enqueue t k =
  if not (Hashtbl.mem t.queued k) then begin
    Hashtbl.add t.queued k ();
    Queue.add k t.queue
  end

let add_caller t ~callee ~caller =
  let cell =
    match Hashtbl.find_opt t.callers callee with
    | Some c -> c
    | None ->
      let c = ref [] in
      Hashtbl.add t.callers callee c;
      c
  in
  if not (List.mem caller !cell) then cell := caller :: !cell

let goal_spec g =
  match g with
  | Prolog.Term.Atom n -> (n, [])
  | Prolog.Term.Struct (n, a) -> (n, a)
  | Prolog.Term.Int _ | Prolog.Term.Var _ -> ("", [])

(* Contribute a call pattern to [callee]; requeue it if it grew. *)
let contribute t ~caller ~callee pat =
  add_caller t ~callee ~caller;
  let grown =
    match Hashtbl.find_opt t.call callee with
    | None ->
      Hashtbl.replace t.call callee pat;
      true
    | Some old ->
      let nu = Prolog.Abspat.join old pat in
      if Prolog.Abspat.equal_pattern nu old then false
      else begin
        Hashtbl.replace t.call callee nu;
        true
      end
  in
  if grown then enqueue t callee

(* One goal.  [None] means the goal cannot succeed here (callee has no
   success pattern yet, or the predicate is undefined, which this
   engine treats as runtime failure): the rest of the clause is
   unreachable and contributes nothing. *)
let exec_goal t ~caller st g =
  match g with
  | Prolog.Term.Var v ->
    (* meta-call: pre-scan already switched to open-world seeding;
       locally the called term may become anything *)
    Some (Absdom.link_all (Absdom.make_any st [ v ]) [ v ])
  | Prolog.Term.Int _ -> None
  | Prolog.Term.Atom _ | Prolog.Term.Struct _ ->
    let name, args = goal_spec g in
    let arity = List.length args in
    if Prolog.Database.has_predicate t.db (name, arity) then begin
      let callee = (name, arity) in
      contribute t ~caller ~callee (Absdom.project st args);
      match Hashtbl.find_opt t.succ callee with
      | None -> None
      | Some sp -> Some (Absdom.apply_success st args sp)
    end
    else begin
      match Builtins.apply st name args with
      | Builtins.Applied st' -> Some st'
      | Builtins.Fails -> None
      | Builtins.Not_builtin -> None (* undefined: fails at run time *)
    end

(* A normalized clause body (only Lit and Par items). *)
let exec_items t ~caller st items =
  List.fold_left
    (fun st_opt item ->
      match st_opt with
      | None -> None
      | Some st -> begin
        match item with
        | Prolog.Cge.Lit g -> exec_goal t ~caller st g
        | Prolog.Cge.Par { arms; _ } ->
          (* arms execute once each whether or not the checks pass
             (the fallback is the same goals run sequentially) *)
          List.fold_left
            (fun st_opt arm ->
              match st_opt with
              | None -> None
              | Some st -> exec_goal t ~caller st arm)
            (Some st) arms
      end)
    (Some st) items

(* A raw entry term: handle the control constructs queries may
   contain (clause bodies have them lifted away by normalization). *)
let join_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some s1, Some s2 -> Some (Absdom.join s1 s2)

let rec exec_term t ~caller st_opt g =
  match st_opt with
  | None -> None
  | Some st -> begin
    match g with
    | Prolog.Term.Struct ((","), [ a; b ])
    | Prolog.Term.Struct ("&", [ a; b ]) ->
      exec_term t ~caller (exec_term t ~caller (Some st) a) b
    | Prolog.Term.Struct (";", [ Prolog.Term.Struct ("->", [ c; th ]); el ])
      ->
      let then_branch =
        exec_term t ~caller (exec_term t ~caller (Some st) c) th
      in
      join_opt then_branch (exec_term t ~caller (Some st) el)
    | Prolog.Term.Struct (";", [ a; b ]) ->
      join_opt (exec_term t ~caller (Some st) a)
        (exec_term t ~caller (Some st) b)
    | Prolog.Term.Struct ("->", [ c; th ]) ->
      exec_term t ~caller (exec_term t ~caller (Some st) c) th
    | Prolog.Term.Struct ("\\+", [ inner ]) ->
      (* no bindings survive; the inner goal still contributes call
         patterns *)
      ignore (exec_term t ~caller (Some st) inner);
      Some st
    | Prolog.Term.Struct (("|" | "=>"), [ cond; goals ])
      when Prolog.Cge.has_par goals ->
      exec_term t ~caller (exec_term t ~caller (Some st) cond) goals
    | _ -> exec_goal t ~caller st g
  end

(* ------------------------------------------------------------------ *)

let head_args head =
  match head with
  | Prolog.Term.Atom _ -> []
  | Prolog.Term.Struct (_, args) -> args
  | Prolog.Term.Int _ | Prolog.Term.Var _ -> []

let requeue_callers t key =
  match Hashtbl.find_opt t.callers key with
  | Some cell -> List.iter (enqueue t) !cell
  | None -> ()

let widen_pred t ((_, arity) as key) =
  t.widened <- t.widened + 1;
  Hashtbl.replace t.call key (Prolog.Abspat.top arity);
  Hashtbl.replace t.succ key (Prolog.Abspat.top arity);
  requeue_callers t key

let process_pred t ((_, arity) as key) =
  match Hashtbl.find_opt t.call key with
  | None -> () (* never called: nothing to do *)
  | Some cp ->
    t.iterations <- t.iterations + 1;
    let n = (match Hashtbl.find_opt t.recompute key with
             | Some n -> n
             | None -> 0) + 1 in
    Hashtbl.replace t.recompute key n;
    if n > widen_after then begin
      match Hashtbl.find_opt t.succ key with
      | Some sp when Prolog.Abspat.equal_pattern sp (Prolog.Abspat.top arity)
        ->
        () (* already top: stable *)
      | Some _ | None -> widen_pred t key
    end
    else begin
      let result =
        List.fold_left
          (fun acc (clause : Prolog.Database.clause) ->
            let args = head_args clause.Prolog.Database.head in
            let st0 = Absdom.seed_head cp args in
            match exec_items t ~caller:key st0 clause.Prolog.Database.body with
            | None -> acc
            | Some st_end ->
              let sp = Absdom.project st_end args in
              (match acc with
              | None -> Some sp
              | Some old -> Some (Prolog.Abspat.join old sp)))
          None
          (Prolog.Database.clauses t.db key)
      in
      match result with
      | None -> () (* still bottom *)
      | Some sp ->
        let nu =
          match Hashtbl.find_opt t.succ key with
          | None -> Some sp
          | Some old ->
            let j = Prolog.Abspat.join old sp in
            if Prolog.Abspat.equal_pattern j old then None else Some j
        in
        (match nu with
        | None -> ()
        | Some sp ->
          Hashtbl.replace t.succ key sp;
          requeue_callers t key)
    end

let process_entry t key =
  match Hashtbl.find_opt t.entries (-(snd key) - 1) with
  | None -> ()
  | Some term ->
    t.iterations <- t.iterations + 1;
    ignore (exec_term t ~caller:key (Some Absdom.empty) term)

(* ------------------------------------------------------------------ *)
(* Seeding.                                                           *)

let pattern_of_modes ms =
  let args =
    Array.of_list
      (List.map
         (function
           | Prolog.Modes.Ground_in -> Prolog.Abspat.Ground
           | Prolog.Modes.Free_in_ground_out -> Prolog.Abspat.Free
           | Prolog.Modes.Unknown -> Prolog.Abspat.Any)
         ms)
  in
  let n = Array.length args in
  let share = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i do
      if args.(i) = Prolog.Abspat.Any && args.(j) = Prolog.Abspat.Any then
        share := (i, j) :: !share
    done
  done;
  { Prolog.Abspat.args; share = !share }

(* Is there a variable goal anywhere?  If so, any predicate may be
   called with any arguments: open world. *)
let has_var_goal db entries =
  let item_has = function
    | Prolog.Cge.Lit (Prolog.Term.Var _) -> true
    | Prolog.Cge.Lit _ -> false
    | Prolog.Cge.Par { arms; _ } ->
      List.exists (function Prolog.Term.Var _ -> true | _ -> false) arms
  in
  let db_has =
    List.exists
      (fun key ->
        List.exists
          (fun (c : Prolog.Database.clause) ->
            List.exists item_has c.Prolog.Database.body)
          (Prolog.Database.clauses db key))
      (Prolog.Database.predicates db)
  in
  let rec term_has g =
    match g with
    | Prolog.Term.Var _ -> true
    | Prolog.Term.Struct
        ((("," | "&" | ";" | "->" | "\\+" | "|" | "=>") as f), args) ->
      (* control positions only; an argument variable of an ordinary
         goal is not a meta-call *)
      ignore f;
      List.exists term_has args
    | Prolog.Term.Atom _ | Prolog.Term.Int _ | Prolog.Term.Struct _ -> false
  in
  db_has || List.exists term_has entries

let run ?(entries = []) db =
  let modes = Prolog.Modes.of_database db in
  let t =
    {
      db;
      call = Hashtbl.create 64;
      succ = Hashtbl.create 64;
      callers = Hashtbl.create 64;
      entries = Hashtbl.create 8;
      queue = Queue.create ();
      queued = Hashtbl.create 64;
      recompute = Hashtbl.create 64;
      iterations = 0;
      widened = 0;
    }
  in
  let open_world = has_var_goal db entries in
  let graph = Depgraph.build db in
  (* Seed in the shared bottom-up visit order (callees before
     callers), restricted to the keys being seeded. *)
  let seed_order keys =
    List.filter (fun k -> List.mem k keys) (Depgraph.topo_order graph)
  in
  (* mode contracts *)
  let moded =
    List.filter_map
      (fun ((name, arity) as key) ->
        match Prolog.Modes.lookup modes ~name ~arity with
        | Some ms ->
          Hashtbl.replace t.call key (pattern_of_modes ms);
          Some key
        | None -> None)
      (Prolog.Database.predicates db)
  in
  if open_world then
    List.iter
      (fun ((_, arity) as key) ->
        let pat =
          match Hashtbl.find_opt t.call key with
          | Some p -> Prolog.Abspat.join p (Prolog.Abspat.top arity)
          | None -> Prolog.Abspat.top arity
        in
        Hashtbl.replace t.call key pat)
      (Prolog.Database.predicates db);
  let seeded =
    if open_world then Prolog.Database.predicates db else moded
  in
  List.iter (enqueue t) (seed_order seeded);
  List.iteri
    (fun i term ->
      Hashtbl.replace t.entries i term;
      enqueue t (entry_key i))
    entries;
  (* iterate *)
  while not (Queue.is_empty t.queue) do
    let key = Queue.pop t.queue in
    Hashtbl.remove t.queued key;
    if is_entry key then process_entry t key else process_pred t key
  done;
  (* package *)
  let patterns = Prolog.Abspat.create () in
  Hashtbl.iter
    (fun ((name, arity) as key) call ->
      if not (is_entry key) then begin
        let success =
          match Hashtbl.find_opt t.succ key with
          | Some sp -> sp
          | None -> Prolog.Abspat.bottom arity
        in
        Prolog.Abspat.set patterns ~name ~arity
          { Prolog.Abspat.call; success }
      end)
    t.call;
  { patterns; iterations = t.iterations; widened = t.widened; open_world }
