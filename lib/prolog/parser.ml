(* Operator-precedence (Pratt) parser for Prolog clauses.

   The tricky parts are the usual Prolog reader subtleties: an atom is a
   prefix operator only when a term can follow; ',' and '|' act as
   operators at the term level but as separators inside argument lists
   and list syntax (arguments parse at priority 999); '-' applied to an
   integer literal folds into a negative literal.  Anonymous '_'
   variables get fresh names _G1, _G2, ... that skip any name a named
   variable of the same read already spells.

   A lexical error is a syntax error: [Error] is the lexer's exception,
   so every malformed text raises the one exception. *)

exception Error = Lexer.Error

type state = {
  lx : Lexer.t;
  mutable fresh : int;
  mutable avoid : string list;  (* named _G... variables of this read *)
}

let fail st msg = raise (Error (msg, Lexer.position st.lx))

let rec fresh_var st =
  st.fresh <- st.fresh + 1;
  let v = "_G" ^ string_of_int st.fresh in
  if List.mem v st.avoid then fresh_var st else v

(* The named variables spelled _G... in each '.'-terminated read of
   [src], in order.  Most sources hold no "_G" at all and skip the
   scan; a lexical error ends it, and the parse reports that error. *)
let named_fresh_lookalikes src =
  let rec mentions i =
    i + 1 < String.length src
    && ((src.[i] = '_' && src.[i + 1] = 'G') || mentions (i + 1))
  in
  if not (mentions 0) then []
  else begin
    let lx = Lexer.make src in
    let rec go cur acc =
      match Lexer.next lx with
      | Lexer.Eof -> List.rev (cur :: acc)
      | Lexer.Punct "." -> go [] (cur :: acc)
      | Lexer.Var v when String.starts_with ~prefix:"_G" v -> go (v :: cur) acc
      | Lexer.Atom _ | Lexer.Var _ | Lexer.Int _ | Lexer.Punct _
      | Lexer.Functor_paren _ ->
        go cur acc
      | exception Error _ -> List.rev (cur :: acc)
    in
    go [] []
  end

(* Tokens that may begin a term (used to decide prefix-operator reads). *)
let starts_term = function
  | Lexer.Atom _ | Lexer.Var _ | Lexer.Int _ | Lexer.Functor_paren _ -> true
  | Lexer.Punct ("(" | "[" | "{") -> true
  | Lexer.Punct _ | Lexer.Eof -> false

let rec parse st max_prio =
  let left, left_prio = parse_primary st max_prio in
  parse_infix st max_prio left left_prio

and parse_infix st max_prio left left_prio =
  let continue_with name prio assoc =
    let larg, rarg = Ops.arg_prios prio assoc in
    if prio <= max_prio && left_prio <= larg then begin
      ignore (Lexer.next st.lx);
      let right = parse st rarg in
      parse_infix st max_prio (Term.Struct (name, [ left; right ])) prio
    end
    else left
  in
  match Lexer.peek st.lx with
  | Lexer.Atom name -> begin
    match Ops.lookup_infix name with
    | Some (prio, assoc) -> continue_with name prio assoc
    | None -> left
  end
  | Lexer.Punct ("," as name) | Lexer.Punct ("|" as name) -> begin
    match Ops.lookup_infix name with
    | Some (prio, assoc) -> continue_with name prio assoc
    | None -> left
  end
  | Lexer.Punct _ | Lexer.Var _ | Lexer.Int _ | Lexer.Functor_paren _
  | Lexer.Eof ->
    left

and parse_primary st max_prio =
  match Lexer.next st.lx with
  | Lexer.Int n -> (Term.Int n, 0)
  | Lexer.Var "_" -> (Term.Var (fresh_var st), 0)
  | Lexer.Var v -> (Term.Var v, 0)
  | Lexer.Functor_paren name ->
    let args = parse_args st in
    (Term.Struct (name, args), 0)
  | Lexer.Punct "(" ->
    let t = parse st 1200 in
    expect st ")";
    (t, 0)
  | Lexer.Punct "[" -> (parse_list st, 0)
  | Lexer.Punct "{" -> begin
    match Lexer.peek st.lx with
    | Lexer.Punct "}" ->
      ignore (Lexer.next st.lx);
      (Term.Atom "{}", 0)
    | Lexer.Atom _ | Lexer.Var _ | Lexer.Int _ | Lexer.Functor_paren _
    | Lexer.Punct _ | Lexer.Eof ->
      let t = parse st 1200 in
      expect st "}";
      (Term.Struct ("{}", [ t ]), 0)
  end
  | Lexer.Atom name -> parse_atom_or_prefix st max_prio name
  | Lexer.Punct p -> fail st (Printf.sprintf "unexpected %S" p)
  | Lexer.Eof -> fail st "unexpected end of input"

and parse_atom_or_prefix st max_prio name =
  let next_tok = Lexer.peek st.lx in
  match Ops.lookup_prefix name with
  | Some (prio, assoc) when prio <= max_prio && starts_term next_tok ->
    (* '-' or '+' immediately before an integer literal is a sign. *)
    if (name = "-" || name = "+") && is_int_token next_tok then begin
      match Lexer.next st.lx with
      | Lexer.Int n -> (Term.Int (if name = "-" then -n else n), 0)
      | Lexer.Atom _ | Lexer.Var _ | Lexer.Punct _ | Lexer.Functor_paren _
      | Lexer.Eof ->
        assert false
    end
    else begin
      let arg_prio =
        match assoc with
        | Ops.Fy -> prio
        | Ops.Fx -> prio - 1
      in
      let arg = parse st arg_prio in
      (Term.Struct (name, [ arg ]), prio)
    end
  | Some _ | None -> (Term.Atom name, 0)

and is_int_token = function
  | Lexer.Int _ -> true
  | Lexer.Atom _ | Lexer.Var _ | Lexer.Punct _ | Lexer.Functor_paren _
  | Lexer.Eof ->
    false

and parse_args st =
  (* After Functor_paren: parse ')'-terminated, ','-separated args. *)
  let rec go acc =
    let arg = parse st 999 in
    match Lexer.next st.lx with
    | Lexer.Punct "," -> go (arg :: acc)
    | Lexer.Punct ")" -> List.rev (arg :: acc)
    | Lexer.Atom a -> fail st (Printf.sprintf "expected , or ) but got %s" a)
    | Lexer.Punct p -> fail st (Printf.sprintf "expected , or ) but got %s" p)
    | Lexer.Var _ | Lexer.Int _ | Lexer.Functor_paren _ ->
      fail st "expected , or )"
    | Lexer.Eof -> fail st "unexpected end of input in argument list"
  in
  go []

and parse_list st =
  match Lexer.peek st.lx with
  | Lexer.Punct "]" ->
    ignore (Lexer.next st.lx);
    Term.nil
  | Lexer.Atom _ | Lexer.Var _ | Lexer.Int _ | Lexer.Functor_paren _
  | Lexer.Punct _ | Lexer.Eof ->
    let rec go acc =
      let elt = parse st 999 in
      match Lexer.next st.lx with
      | Lexer.Punct "," -> go (elt :: acc)
      | Lexer.Punct "]" -> Term.list_of (List.rev (elt :: acc))
      | Lexer.Punct "|" ->
        let tail = parse st 999 in
        expect st "]";
        Term.list_with_tail (List.rev (elt :: acc)) tail
      | Lexer.Atom _ | Lexer.Var _ | Lexer.Int _ | Lexer.Functor_paren _ ->
        fail st "expected , | or ] in list"
      | Lexer.Punct p -> fail st (Printf.sprintf "expected , | or ] but got %s" p)
      | Lexer.Eof -> fail st "unexpected end of input in list"
    in
    go []

and expect st punct =
  match Lexer.next st.lx with
  | Lexer.Punct p when p = punct -> ()
  | Lexer.Atom a -> fail st (Printf.sprintf "expected %s but got %s" punct a)
  | Lexer.Punct p -> fail st (Printf.sprintf "expected %s but got %s" punct p)
  | Lexer.Var v -> fail st (Printf.sprintf "expected %s but got %s" punct v)
  | Lexer.Int n -> fail st (Printf.sprintf "expected %s but got %d" punct n)
  | Lexer.Functor_paren f ->
    fail st (Printf.sprintf "expected %s but got %s(" punct f)
  | Lexer.Eof -> fail st (Printf.sprintf "expected %s but got end of input" punct)

(* ------------------------------------------------------------------ *)

let term_of_string src =
  let avoid =
    match named_fresh_lookalikes src with first :: _ -> first | [] -> []
  in
  let st = { lx = Lexer.make src; fresh = 0; avoid } in
  let t = parse st 1200 in
  match Lexer.peek st.lx with
  | Lexer.Eof | Lexer.Punct "." -> t
  | Lexer.Atom _ | Lexer.Var _ | Lexer.Int _ | Lexer.Functor_paren _
  | Lexer.Punct _ ->
    fail st "trailing tokens after term"

(* Read every '.'-terminated clause in [src]. *)
let clauses_of_string src =
  let st = { lx = Lexer.make src; fresh = 0; avoid = [] } in
  let rec go acc lookalikes =
    match Lexer.peek st.lx with
    | Lexer.Eof -> List.rev acc
    | Lexer.Atom _ | Lexer.Var _ | Lexer.Int _ | Lexer.Functor_paren _
    | Lexer.Punct _ ->
      let avoid, rest =
        match lookalikes with avoid :: rest -> (avoid, rest) | [] -> ([], [])
      in
      st.avoid <- avoid;
      let t = parse st 1200 in
      expect st ".";
      go (t :: acc) rest
  in
  go [] (named_fresh_lookalikes src)
