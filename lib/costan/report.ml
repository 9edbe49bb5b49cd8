(* Rendering: the per-predicate cost table (deterministic, in the
   shared SCC order -- CI diffs two runs of it) and the CLI's JSON
   values. *)

open Domain

let pp_verdict fmt = function
  | Analyze.Keep -> Format.pp_print_string fmt "keep"
  | Analyze.Small -> Format.pp_print_string fmt "small"
  | Analyze.Guard (i, k) -> Format.fprintf fmt "guard(arg %d, size >= %d)" i k

(* The --dump-costs table: one line per predicate, topo order. *)
let pp_costs ?threshold fmt an =
  Format.fprintf fmt "%-20s %-10s %5s %10s %12s %4s%s@."
    "predicate" "class" "dec" "unit(mid)" "unit(hi)" "det"
    (match threshold with Some _ -> "  verdict" | None -> "");
  List.iter
    (fun key ->
      match Analyze.find an key with
      | None -> ()
      | Some p ->
        Format.fprintf fmt "%-20s %-10s %5s %10d %12d %4s"
          (Printf.sprintf "%s/%d" (fst key) (snd key))
          (cls_name p.Analyze.cls)
          (match p.Analyze.dec with
          | Some i -> string_of_int i
          | None -> "-")
          p.Analyze.unit_cost p.Analyze.unit_hi
          (if p.Analyze.det then "yes" else "no");
        (match threshold with
        | Some th ->
          Format.fprintf fmt "  %a" pp_verdict
            (Analyze.verdict_key an ~threshold:th key)
        | None -> ());
        Format.pp_print_newline fmt ())
    (Analyze.order an)

(* ------------------------------------------------------------------ *)
(* JSON values for the CLI. *)

module J = Obs.Json

let json_interval (i : interval) =
  J.Obj [ ("lo", J.Int i.lo); ("hi", J.Int i.hi); ("mid", J.Int (mid i)) ]

(* Nonzero areas only. *)
let json_refs (refs : Footprint.t) =
  J.Obj
    (List.filter_map
       (fun area ->
         let i = refs.(Trace.Area.to_int area) in
         if is_zero i then None
         else Some (Trace.Area.name area, json_interval i))
       Trace.Area.all)

let json_prediction = function
  | Ok (p : Eval.prediction) ->
    J.Obj
      [
        ("steps", json_interval p.Eval.p_steps);
        ("refs", json_refs p.Eval.p_refs);
        ("evals", J.Int p.Eval.p_evals);
        ("exact", J.Bool (p.Eval.p_exactness = Eval.Yes));
      ]
  | Error reason -> J.Obj [ ("unknown", J.String reason) ]

let json_predicates an =
  J.List
    (List.filter_map
       (fun key ->
         Option.map
           (fun p ->
             J.Obj
               [
                 ("name", J.String (fst key));
                 ("arity", J.Int (snd key));
                 ("class", J.String (cls_name p.Analyze.cls));
                 ( "dec",
                   match p.Analyze.dec with
                   | Some i -> J.Int i
                   | None -> J.Null );
                 ("unit_cost", J.Int p.Analyze.unit_cost);
                 ("unit_hi", J.Int p.Analyze.unit_hi);
                 ("determinate", J.Bool p.Analyze.det);
               ])
           (Analyze.find an key))
       (Analyze.order an))
