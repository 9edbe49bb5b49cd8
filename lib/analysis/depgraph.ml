(* Predicate call graph + Tarjan SCC, and the one iterate-until-stable
   loop the analyses share.  Program call graphs here are small (tens
   of predicates), so the recursive formulation is fine. *)

type key = string * int

type t = {
  keys : key list; (* first-definition order *)
  edges : (key, key list) Hashtbl.t;
  mutable sccs_memo : key list list option;
  index : (key, int) Hashtbl.t; (* key -> scc index *)
}

let goal_key db g =
  match Prolog.Term.functor_of g with
  | Some key when Prolog.Database.has_predicate db key -> Some key
  | Some _ | None -> None

let build db =
  let keys = Prolog.Database.predicates db in
  let edges = Hashtbl.create 64 in
  List.iter
    (fun key ->
      let callees = ref [] in
      let add g =
        match goal_key db g with
        | Some k -> if not (List.mem k !callees) then callees := k :: !callees
        | None -> ()
      in
      List.iter
        (fun (clause : Prolog.Database.clause) ->
          List.iter
            (function
              | Prolog.Cge.Lit g -> add g
              | Prolog.Cge.Par { arms; _ } -> List.iter add arms)
            clause.Prolog.Database.body)
        (Prolog.Database.clauses db key);
      Hashtbl.replace edges key (List.rev !callees))
    keys;
  { keys; edges; sccs_memo = None; index = Hashtbl.create 64 }

let callees t key =
  match Hashtbl.find_opt t.edges key with Some ks -> ks | None -> []

(* Tarjan, visiting keys in definition order for determinism. *)
let compute_sccs t =
  let idx = Hashtbl.create 64 in
  let low = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strong v =
    Hashtbl.replace idx v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem idx w) then begin
          strong w;
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find idx w)))
      (callees t v);
    if Hashtbl.find low v = Hashtbl.find idx v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun k -> if not (Hashtbl.mem idx k) then strong k) t.keys;
  (* Tarjan emits components in reverse topological order already;
     [out] accumulated by consing, so reverse back. *)
  let sccs = List.rev !out in
  List.iteri
    (fun i comp -> List.iter (fun k -> Hashtbl.replace t.index k i) comp)
    sccs;
  sccs

let sccs t =
  match t.sccs_memo with
  | Some s -> s
  | None ->
    let s = compute_sccs t in
    t.sccs_memo <- Some s;
    s

let scc_index t key =
  ignore (sccs t);
  match Hashtbl.find_opt t.index key with Some i -> i | None -> -1

(* Flattened SCC list: a deterministic bottom-up (callees before
   callers) visit order shared by the fixpoint seeding and the cost
   analyzer's recurrence pass. *)
let topo_order t = List.concat (sccs t)

(* Pass after pass over [keys] in list order, until a pass in which
   [step] reports no change or [max_rounds] passes are spent.  Every
   key is stepped on every pass: [step] runs before the fold looks at
   the flag. *)
let fixpoint ?max_rounds keys step =
  let capped n = match max_rounds with Some m -> n >= m | None -> false in
  let rec pass n =
    if capped n then (n, false)
    else if List.fold_left (fun changed k -> step k || changed) false keys
    then pass (n + 1)
    else (n + 1, true)
  in
  pass 0
