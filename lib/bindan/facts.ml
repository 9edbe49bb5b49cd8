(* Per-predicate fact export.

   The flat-store dispatch loop (the ROADMAP item "An emulator step
   that allocates nothing and inlines its cell and memory operations")
   wants a static table it can consult without re-running the
   analysis: per predicate, the call-time instantiation and binding
   conditionality of every argument, whether every dispatch chain is
   determinacy-certified, and which arguments are certified
   uninitialized outputs.  This module renders {!Dom.pred_fact} lists
   as JSON. *)

let json_of_fact (f : Dom.pred_fact) =
  let module J = Obs.Json in
  let arg i (a : Dom.arg_fact) =
    J.Obj
      [
        ("arg", J.Int (i + 1));
        ("inst", J.String (Dom.inst_to_string a.a_inst));
        ("cond", J.String (Dom.cond_to_string a.a_cond));
        ("uninit", J.Bool f.pf_uninit.(i));
      ]
  in
  let name, arity = f.pf_pred in
  J.Obj
    [
      ("pred", J.String (Printf.sprintf "%s/%d" name arity));
      ("ddet", J.Bool f.pf_ddet);
      ("args", J.List (List.mapi arg (Array.to_list f.pf_args)));
    ]

let json_of_facts facts = Obs.Json.List (List.map json_of_fact facts)

let pp fmt (facts : Dom.pred_fact list) =
  List.iter (fun f -> Format.fprintf fmt "%a@." Dom.pp_pred f) facts
