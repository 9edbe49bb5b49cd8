(* The soundness oracle: every dynamic access must fall inside the
   static summary of the predicate it was attributed to, and the
   predicted shareability tags must cover every address that was
   dynamically shared (recall 1.0) while staying ahead of the
   tag-everything baseline on precision. *)

type violation = {
  pred : string;  (** "name/arity", or "(runtime)" for scheduler work *)
  area : Trace.Area.t;
  op : Trace.Ref_record.op;
  mode : Mode.t;  (** mode the static summary holds *)
  needed : Mode.t;  (** minimum mode the observed access requires *)
}

let pp_violation fmt v =
  Format.fprintf fmt "%s: %s %s but summary mode is %s (needs %s)" v.pred
    (Trace.Area.name v.area)
    (match v.op with
    | Trace.Ref_record.Read -> "read"
    | Trace.Ref_record.Write -> "written")
    (Mode.name v.mode) (Mode.name v.needed)

(* What the runtime machinery (query seeding, stealing, message-driven
   unwinding) is allowed to touch outside any predicate's code. *)
let runtime_allowed =
  let s = Summary.empty () in
  Summary.set s Trace.Area.Heap Mode.Write_once;
  Summary.set s Trace.Area.Env_pvar Mode.Write_once;
  Summary.set s Trace.Area.Env_control Mode.Local_write;
  Summary.set s Trace.Area.Choice_point Mode.Local_write;
  Summary.set s Trace.Area.Trail Mode.Read;
  Summary.set s Trace.Area.Parcall_local Mode.Local_write;
  Summary.set s Trace.Area.Marker Mode.Local_write;
  Summary.set s Trace.Area.Parcall_global Mode.Shared_write;
  Summary.set s Trace.Area.Parcall_count Mode.Shared_write;
  Summary.set s Trace.Area.Goal_frame Mode.Shared_write;
  Summary.set s Trace.Area.Message Mode.Shared_write;
  s

let check_obs ~pred summary (o : Collect.obs) acc =
  List.fold_left
    (fun acc area ->
      let need op acc =
        if Summary.permits summary area op then acc
        else
          {
            pred; area; op; mode = Summary.get summary area;
            needed = Mode.of_op area op;
          }
          :: acc
      in
      let acc =
        if Collect.seen_read o area then need Trace.Ref_record.Read acc
        else acc
      in
      if Collect.seen_write o area then need Trace.Ref_record.Write acc
      else acc)
    acc Trace.Area.all

let check (static : Static.t) (c : Collect.t) =
  let acc =
    Hashtbl.fold
      (fun fid o acc ->
        match Static.find static fid with
        | Some p -> check_obs ~pred:(Static.spec static fid) p.Static.own o acc
        | None ->
          check_obs ~pred:(Static.spec static fid) (Summary.empty ()) o acc)
      c.Collect.by_fid []
  in
  let acc = check_obs ~pred:"(runtime)" runtime_allowed c.Collect.runtime acc in
  List.sort compare acc

(* ------------------------------------------------------------------ *)
(* Shareability-tag scoring.                                          *)

(* Scored per (address, area) pair: a tag is judged on the accesses
   made under it. *)
type tag_score = {
  addrs : int;  (** distinct (address, area) pairs touched *)
  dyn_shared : int;  (** pairs dynamically shared between PEs *)
  predicted_shared : int;
  true_pos : int;
  precision : float;  (** of predicted-shared pairs, truly shared *)
  recall : float;  (** of truly shared pairs, predicted (must be 1) *)
  baseline_precision : float;  (** the tag-everything-Global baseline *)
}

let score_tags (static : Static.t) (c : Collect.t) =
  let addrs, dyn, pred, tp =
    Collect.fold_addrs
      (fun (addrs, dyn, pred, tp) ~addr:_ ~area ~shared ->
        let p = Static.predicted_locality static area = Trace.Area.Global in
        ( addrs + 1,
          (if shared then dyn + 1 else dyn),
          (if p then pred + 1 else pred),
          if p && shared then tp + 1 else tp ))
      c (0, 0, 0, 0)
  in
  let ratio num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den in
  {
    addrs;
    dyn_shared = dyn;
    predicted_shared = pred;
    true_pos = tp;
    precision = ratio tp pred;
    recall = ratio tp dyn;
    baseline_precision = (if addrs = 0 then 1.0 else ratio dyn addrs);
  }
