(* Parcall race-freedom certification.

   A parallel group is certified non-interfering when the static
   summaries alone prove its arms cannot race:

     - the CGE condition carries no [ground/1] or [indep/2] check:
       those exist precisely because independence could not be proven
       at compile time ([size_ge/2] is pure granularity control and
       does not affect safety);
     - every arm resolves to compiled code whose transitive closure is
       closed-world (no unknown callee); and
     - every area mode in each arm's closure stays within the area's
       discipline cap: code is read-only, binding areas are
       write-once, everything else at most the protocol level the
       area is designed for.

   Certified groups need no dynamic verification: the tracecheck
   verify stage may be skipped for them. *)

type decision = { certified : bool; reason : string }

let ok = { certified = true; reason = "" }
let no reason = { certified = false; reason }

(* Discipline cap per area: the strongest mode a race-free arm may
   hold.  Everything except code coincides with [Mode.w_mode]; the
   check is what keeps a (possibly defect-weakened or future) summary
   honest rather than trusting the constructor invariant. *)
let cap (a : Trace.Area.t) =
  match a with Trace.Area.Code -> Mode.Read | a -> Mode.w_mode a

let arm_decision static arm =
  match Prolog.Term.functor_of arm with
  | None -> no "arm is not a callable term"
  | Some (name, arity) -> (
    match Static.find_spec static ~name ~arity with
    | None -> no (Printf.sprintf "%s/%d has no compiled code" name arity)
    | Some p ->
      if not p.Static.closure.Summary.closed then
        no (Printf.sprintf "%s/%d reaches unknown code" name arity)
      else (
        match
          List.find_opt
            (fun a ->
              not (Mode.leq (Summary.get p.Static.closure a) (cap a)))
            Trace.Area.all
        with
        | Some a ->
          no
            (Printf.sprintf "%s/%d: %s mode %s exceeds cap %s" name arity
               (Trace.Area.name a)
               (Mode.name (Summary.get p.Static.closure a))
               (Mode.name (cap a)))
        | None -> ok))

let group static (checks : Prolog.Cge.check list) (arms : Prolog.Term.t list) =
  match
    List.find_opt
      (function
        | Prolog.Cge.Ground _ | Prolog.Cge.Indep _ -> true
        | Prolog.Cge.Size_ge _ -> false)
      checks
  with
  | Some c ->
    no
      (Format.asprintf "independence not static: needs %a" Prolog.Cge.pp_check
         c)
  | None -> (
    match
      List.filter_map
        (fun arm ->
          let d = arm_decision static arm in
          if d.certified then None else Some d.reason)
        arms
    with
    | [] -> ok
    | reason :: _ -> no reason)

(* The certifier [Instance] scores the annotation's groups with. *)
let certifier static checks arms = (group static checks arms).certified

(* ------------------------------------------------------------------ *)
(* Whole-database report.                                             *)

type entry = {
  pred : string * int;  (** predicate whose clause holds the group *)
  checks : Prolog.Cge.check list;
  arms : Prolog.Term.t list;
  decision : decision;
}

type report = { entries : entry list; certified : int; total : int }

let database static (db : Prolog.Database.t) =
  let entries =
    List.rev
      (Prolog.Database.fold_groups
         (fun acc pred checks arms ->
           { pred; checks; arms; decision = group static checks arms } :: acc)
         [] db)
  in
  {
    entries;
    certified =
      List.length (List.filter (fun e -> e.decision.certified) entries);
    total = List.length entries;
  }

let pp_entry fmt e =
  Format.fprintf fmt "%s/%d: %s%s"
    (fst e.pred) (snd e.pred)
    (if e.decision.certified then "static_safe" else "dynamic")
    (if e.decision.certified then ""
     else Printf.sprintf " (%s)" e.decision.reason)
