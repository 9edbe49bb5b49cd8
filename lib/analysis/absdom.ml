(* Abstract substitutions: definite groundness + freeness + pair
   sharing.  Purely functional so branch joins and fixpoint snapshots
   are cheap to reason about.

   Soundness notes mirrored from the annotator:
   - grounding a variable severs every sharing pair through it;
   - linking u-v (an abstract binding that may connect their terms)
     star-closes over the current neighbors of both sides: anything
     sharing u may afterwards share anything sharing v;
   - Var = t links the variable to t's variables but not t's variables
     to each other (they occupy disjoint subterms of t). *)

module SS = Set.Make (String)

module PS = Set.Make (struct
  type t = string * string

  let compare = compare
end)

type gfa = Prolog.Abspat.gfa

type t = {
  ground : SS.t;
  any : SS.t;
  share : (string * string) list; (* sorted, normalized x <= y, x <> y *)
}

let empty = { ground = SS.empty; any = SS.empty; share = [] }

let norm x y : string * string = if x <= y then (x, y) else (y, x)

let gfa_of t v =
  if SS.mem v t.ground then Prolog.Abspat.Ground
  else if SS.mem v t.any then Prolog.Abspat.Any
  else Prolog.Abspat.Free

let set_ground t vs =
  let g = List.fold_left (fun acc v -> SS.add v acc) t.ground vs in
  {
    ground = g;
    any = SS.diff t.any g;
    share = List.filter (fun (x, y) -> not (SS.mem x g || SS.mem y g)) t.share;
  }

let make_any t vs =
  let a =
    List.fold_left
      (fun acc v -> if SS.mem v t.ground then acc else SS.add v acc)
      t.any vs
  in
  { t with any = a }

let neighbors t v =
  List.fold_left
    (fun acc (x, y) ->
      if x = v then y :: acc else if y = v then x :: acc else acc)
    [ v ] t.share

let may_share t x y =
  x = y
  || List.mem (norm x y) t.share

let link t u v =
  if u = v || SS.mem u t.ground || SS.mem v t.ground then t
  else begin
    let nu = neighbors t u and nv = neighbors t v in
    let pairs =
      List.concat_map
        (fun x ->
          List.filter_map
            (fun y -> if x = y then None else Some (norm x y))
            nv)
        nu
    in
    let share = List.sort_uniq compare (pairs @ t.share) in
    let t = make_any t (nu @ nv) in
    { t with share }
  end

let link_all t vs =
  let rec go t = function
    | [] -> t
    | v :: rest -> go (List.fold_left (fun t w -> link t v w) t rest) rest
  in
  go t vs

let term_ground t tm =
  List.for_all (fun v -> SS.mem v t.ground) (Prolog.Term.vars tm)

let unify t a b =
  if term_ground t a then set_ground t (Prolog.Term.vars b)
  else if term_ground t b then set_ground t (Prolog.Term.vars a)
  else begin
    match (a, b) with
    | Prolog.Term.Var x, _ ->
      List.fold_left (fun t v -> link t x v) t (Prolog.Term.vars b)
    | _, Prolog.Term.Var y ->
      List.fold_left (fun t v -> link t y v) t (Prolog.Term.vars a)
    | _, _ ->
      let va = Prolog.Term.vars a and vb = Prolog.Term.vars b in
      List.fold_left
        (fun t u -> List.fold_left (fun t v -> link t u v) t vb)
        t va
  end

let join a b =
  (* G |_| F = Any: a variable ground on one path and free on the
     other is unknown afterwards *)
  let ground = SS.inter a.ground b.ground in
  let any =
    SS.diff
      (SS.union (SS.union a.any b.any) (SS.union a.ground b.ground))
      ground
  in
  let share =
    List.filter
      (fun (x, y) -> not (SS.mem x ground || SS.mem y ground))
      (List.sort_uniq compare (a.share @ b.share))
  in
  { ground; any; share }

(* ------------------------------------------------------------------ *)
(* Pattern interface.                                                 *)

let rec count_var v tm =
  match tm with
  | Prolog.Term.Var w -> if v = w then 1 else 0
  | Prolog.Term.Atom _ | Prolog.Term.Int _ -> 0
  | Prolog.Term.Struct (_, args) ->
    List.fold_left (fun n a -> n + count_var v a) 0 args

let project t args =
  let arg_vars = Array.of_list (List.map Prolog.Term.vars args) in
  let n = Array.length arg_vars in
  let gfa_arg arg =
    if term_ground t arg then Prolog.Abspat.Ground
    else begin
      match arg with
      | Prolog.Term.Var v when gfa_of t v = Prolog.Abspat.Free ->
        Prolog.Abspat.Free
      | _ -> Prolog.Abspat.Any
    end
  in
  let args_arr = Array.of_list args in
  let pat_args = Array.map gfa_arg args_arr in
  let nonground v = gfa_of t v <> Prolog.Abspat.Ground in
  let share = ref [] in
  for i = 0 to n - 1 do
    (* internal aliasing: a repeated non-ground variable inside one
       argument, or two of its variables sharing *)
    let vs_i = List.filter nonground arg_vars.(i) in
    let internal =
      List.exists (fun v -> count_var v args_arr.(i) > 1) vs_i
      || List.exists
           (fun u ->
             List.exists (fun v -> u <> v && may_share t u v) vs_i)
           vs_i
    in
    if internal then share := (i, i) :: !share;
    for j = i + 1 to n - 1 do
      let vs_j = List.filter nonground arg_vars.(j) in
      if
        List.exists
          (fun u -> List.exists (fun v -> may_share t u v) vs_j)
          vs_i
      then share := (i, j) :: !share
    done
  done;
  { Prolog.Abspat.args = pat_args; share = List.sort compare !share }

let apply_positional t args (pat : Prolog.Abspat.pattern) =
  let arg_vars = Array.of_list (List.map Prolog.Term.vars args) in
  let t = ref t in
  Array.iteri
    (fun i vs ->
      match pat.Prolog.Abspat.args.(i) with
      | Prolog.Abspat.Ground -> t := set_ground !t vs
      | Prolog.Abspat.Free -> ()
      | Prolog.Abspat.Any -> t := make_any !t vs)
    arg_vars;
  List.iter
    (fun (i, j) ->
      if i = j then t := link_all !t arg_vars.(i)
      else
        List.iter
          (fun u -> List.iter (fun v -> t := link !t u v) arg_vars.(j))
          arg_vars.(i))
    pat.Prolog.Abspat.share;
  !t

let apply_success t args pat = apply_positional t args pat

let seed_head pat args =
  (* a head variable repeated across argument positions aliases the
     corresponding caller terms with each other; apply_positional only
     weakens it per-position, which is sound because the repeat makes
     it Any in each *)
  let t = apply_positional empty args pat in
  (* same variable in two positions: it is certainly not fresh unless
     every position asserts freeness of a distinct variable *)
  let seen = Hashtbl.create 8 in
  let repeated = ref [] in
  List.iter
    (fun arg ->
      List.iter
        (fun v ->
          if Hashtbl.mem seen v then repeated := v :: !repeated
          else Hashtbl.add seen v ())
        (List.sort_uniq compare (Prolog.Term.vars arg)))
    args;
  make_any t !repeated
