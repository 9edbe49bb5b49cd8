(* Term printing with operator notation and list syntax. *)

let is_letter_atom name =
  name <> ""
  && Lexer.is_lower name.[0]
  && String.for_all Lexer.is_alnum name

let needs_quote name =
  match name with
  | "[]" | "{}" | "!" | ";" | "," | "|" -> false
  | _ ->
    (not (is_letter_atom name))
    && not (String.for_all Lexer.is_symbol_char name && name <> "")

let atom_to_string name =
  if needs_quote name then "'" ^ name ^ "'" else name

let rec pp fmt t = pp_prio 1200 fmt t

and pp_prio max_prio fmt t =
  match t with
  | Term.Atom a -> Format.pp_print_string fmt (atom_to_string a)
  | Term.Int n -> Format.pp_print_int fmt n
  | Term.Var v -> Format.pp_print_string fmt v
  | Term.Struct (".", [ _; _ ]) -> pp_list fmt t
  | Term.Struct (f, [ a; b ]) as whole -> begin
    match Ops.lookup_infix f with
    | Some (prio, assoc) ->
      let la, ra = Ops.arg_prios prio assoc in
      let body fmt () =
        Format.fprintf fmt "%a%s%a" (pp_prio la) a
          (if f = "," then ", " else " " ^ f ^ " ")
          (pp_prio ra) b
      in
      if prio > max_prio then Format.fprintf fmt "(%a)" body ()
      else body fmt ()
    | None -> pp_canonical fmt whole
  end
  | Term.Struct (f, [ a ]) as whole -> begin
    match Ops.lookup_prefix f with
    | Some (prio, assoc) ->
      let ap = match assoc with Ops.Fy -> prio | Ops.Fx -> prio - 1 in
      let body fmt () =
        Format.fprintf fmt "%s %a" f (pp_prio ap) a
      in
      if prio > max_prio then Format.fprintf fmt "(%a)" body ()
      else body fmt ()
    | None -> pp_canonical fmt whole
  end
  | Term.Struct _ as whole -> pp_canonical fmt whole

and pp_canonical fmt = function
  | Term.Struct (f, args) ->
    Format.fprintf fmt "%s(%a)" (atom_to_string f)
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         (pp_prio 999))
      args
  | (Term.Atom _ | Term.Int _ | Term.Var _) as t -> pp_prio 0 fmt t

and pp_list fmt t =
  let rec elements fmt t =
    match t with
    | Term.Struct (".", [ h; (Term.Struct (".", [ _; _ ]) as tl) ]) ->
      Format.fprintf fmt "%a, %a" (pp_prio 999) h elements tl
    | Term.Struct (".", [ h; Term.Atom "[]" ]) -> pp_prio 999 fmt h
    | Term.Struct (".", [ h; tl ]) ->
      Format.fprintf fmt "%a|%a" (pp_prio 999) h (pp_prio 999) tl
    | Term.Atom _ | Term.Int _ | Term.Var _ | Term.Struct _ ->
      pp_prio 999 fmt t
  in
  Format.fprintf fmt "[%a]" elements t

let to_string t = Format.asprintf "%a" pp t
