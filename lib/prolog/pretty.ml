(* Term printing with operator notation and list syntax.

   The printer writes into one buffer and knows, at each subterm, what
   the parser will do with it:
   - [prio]: the highest operator priority printable bare here;
   - [pmax]: the priority the parser reads this subterm's first
     primary at (a left operand's first primary is read at its whole
     expression's priority, not at the operand's);
   - [follow]: what the printer writes right after it.
   A prefix-operator atom followed by an infix operator would be read
   as an application, so it is parenthesized; '-' or '+' before an
   integer would fold into a signed literal, so that application is
   printed canonically ('-(1)'). *)

let is_letter_atom name =
  name <> ""
  && Lexer.is_lower name.[0]
  && String.for_all Lexer.is_alnum name

(* A symbol-char run, unless it would open a block comment. *)
let is_symbol_atom name =
  name <> ""
  && String.for_all Lexer.is_symbol_char name
  && not (String.starts_with ~prefix:"/*" name)

let needs_quote name =
  match name with
  | "[]" | "{}" | "!" | ";" -> false
  | _ -> not (is_letter_atom name || is_symbol_atom name)

let add_quoted b name =
  Buffer.add_char b '\'';
  String.iter
    (function
      | '\'' -> Buffer.add_string b "''"
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    name;
  Buffer.add_char b '\''

(* What comes right after a subterm: a closing bracket or a separator
   written without a space, an infix operator token (which starts a
   term), the infix '|' (which does not), or the end of the text. *)
type follow = Close | Infix | Bar | End

let add_int b ~pmax n =
  (* a negative literal is a '-' the parser folds only where a prefix
     '-' may stand *)
  if n < 0 && pmax < 200 then begin
    Buffer.add_char b '(';
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b ')'
  end
  else Buffer.add_string b (string_of_int n)

let add_atom b ~pmax ~follow a =
  if needs_quote a || (a = "." && follow <> Close) then
    (* a bare '.' before layout or the end would end the clause *)
    add_quoted b a
  else
    match Ops.lookup_prefix a with
    | Some (p, _) when follow = Infix && p <= pmax ->
      Buffer.add_char b '(';
      Buffer.add_string b a;
      Buffer.add_char b ')'
    | Some _ | None -> Buffer.add_string b a

(* A name written just before '(': it must lex as a functor. *)
let add_functor b f =
  if is_letter_atom f || is_symbol_atom f then Buffer.add_string b f
  else add_quoted b f

let starts_with_digit b i =
  i < Buffer.length b && match Buffer.nth b i with '0' .. '9' -> true | _ -> false

let rec pp_at b ~prio ~pmax ~follow (t : Term.t) =
  match t with
  | Term.Atom a -> add_atom b ~pmax ~follow a
  | Term.Int n -> add_int b ~pmax n
  | Term.Var v -> Buffer.add_string b v
  | Term.Struct (".", [ _; _ ]) -> pp_list b t
  | Term.Struct ("{}", [ x ]) ->
    Buffer.add_char b '{';
    pp_at b ~prio:1200 ~pmax:1200 ~follow:Close x;
    Buffer.add_char b '}'
  | Term.Struct (f, [ x; y ]) -> (
    match Ops.lookup_infix f with
    | Some (op, assoc) ->
      let la, ra = Ops.arg_prios op assoc in
      let paren = op > prio in
      if paren then Buffer.add_char b '(';
      let pmax = if paren then 1200 else pmax in
      let follow = if paren then Close else follow in
      (match f with
      | "," ->
        pp_at b ~prio:la ~pmax ~follow:Close x;
        Buffer.add_string b ", "
      | _ ->
        pp_at b ~prio:la ~pmax ~follow:(if f = "|" then Bar else Infix) x;
        Buffer.add_char b ' ';
        Buffer.add_string b f;
        Buffer.add_char b ' ');
      pp_at b ~prio:ra ~pmax:ra ~follow y;
      if paren then Buffer.add_char b ')'
    | None -> pp_canonical b f [ x; y ])
  | Term.Struct (f, [ x ]) -> (
    match Ops.lookup_prefix f with
    | Some (op, assoc) ->
      let ap = match assoc with Ops.Fy -> op | Ops.Fx -> op - 1 in
      let start = Buffer.length b in
      let paren = op > prio in
      if paren then Buffer.add_char b '(';
      Buffer.add_string b f;
      Buffer.add_char b ' ';
      let arg = Buffer.length b in
      pp_at b ~prio:ap ~pmax:ap ~follow:(if paren then Close else follow) x;
      if (f = "-" || f = "+") && starts_with_digit b arg then begin
        (* "- 1" would read back as the integer -1 *)
        Buffer.truncate b start;
        pp_canonical b f [ x ]
      end
      else if paren then Buffer.add_char b ')'
    | None -> pp_canonical b f [ x ])
  | Term.Struct (f, args) -> pp_canonical b f args

and pp_canonical b f args =
  add_functor b f;
  Buffer.add_char b '(';
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_string b ", ";
      pp_at b ~prio:999 ~pmax:999 ~follow:Close a)
    args;
  Buffer.add_char b ')'

and pp_list b t =
  let rec elements t =
    match t with
    | Term.Struct (".", [ h; (Term.Struct (".", [ _; _ ]) as tl) ]) ->
      pp_at b ~prio:999 ~pmax:999 ~follow:Close h;
      Buffer.add_string b ", ";
      elements tl
    | Term.Struct (".", [ h; Term.Atom "[]" ]) ->
      pp_at b ~prio:999 ~pmax:999 ~follow:Close h
    | Term.Struct (".", [ h; tl ]) ->
      pp_at b ~prio:999 ~pmax:999 ~follow:Close h;
      Buffer.add_char b '|';
      pp_at b ~prio:999 ~pmax:999 ~follow:Close tl
    | Term.Atom _ | Term.Int _ | Term.Var _ | Term.Struct _ ->
      pp_at b ~prio:999 ~pmax:999 ~follow:Close t
  in
  Buffer.add_char b '[';
  elements t;
  Buffer.add_char b ']'

let to_string t =
  let b = Buffer.create 64 in
  pp_at b ~prio:1200 ~pmax:1200 ~follow:End t;
  Buffer.contents b

let pp fmt t = Format.pp_print_string fmt (to_string t)
