(* Tokenizer for Prolog source text.

   Handles unquoted/quoted atoms, symbolic atoms (runs of symbol chars),
   variables, integers, punctuation, '%' line comments and nested-free
   block comments.  A '(' immediately following an atom (no space) is
   distinguished as [Functor_paren] so the parser can tell application
   f(X) from grouping f (X).

   The scanner works by index over the source string: every loop is a
   top-level function of the lexer state, punctuation tokens are
   constants, and an integer literal is accumulated digit by digit, so
   the only allocation per token is its name (and a quoted atom's
   buffer). *)

type token =
  | Atom of string
  | Var of string
  | Int of int
  | Punct of string (* ( ) [ ] { } , | and end-of-clause '.' *)
  | Functor_paren of string (* name immediately followed by '(' *)
  | Eof

exception Error of string * int (* message, position *)

type t = {
  src : string;
  len : int;
  mutable pos : int;
  mutable peeked : token;  (* meaningful when [has_peeked] *)
  mutable has_peeked : bool;
}

let make src =
  { src; len = String.length src; pos = 0; peeked = Eof; has_peeked = false }

let is_digit c = c >= '0' && c <= '9'
let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_digit c || is_lower c || is_upper c

let is_symbol_char c =
  match c with
  | '+' | '-' | '*' | '/' | '\\' | '^' | '<' | '>' | '=' | '~' | ':' | '.'
  | '?' | '@' | '#' | '$' | '&' ->
    true
  | _ -> false

(* [at lx i c]: the source holds [c] at index [i]. *)
let at lx i c = i < lx.len && String.unsafe_get lx.src i = c

let rec skip_line lx =
  if lx.pos < lx.len && String.unsafe_get lx.src lx.pos <> '\n' then begin
    lx.pos <- lx.pos + 1;
    skip_line lx
  end

(* Inside a block comment, just past its opening slash-star. *)
let rec skip_block lx =
  if lx.pos >= lx.len then raise (Error ("unterminated block comment", lx.pos))
  else if at lx lx.pos '*' && at lx (lx.pos + 1) '/' then lx.pos <- lx.pos + 2
  else begin
    lx.pos <- lx.pos + 1;
    skip_block lx
  end

let rec skip_ws lx =
  if lx.pos < lx.len then
    match String.unsafe_get lx.src lx.pos with
    | ' ' | '\t' | '\n' | '\r' ->
      lx.pos <- lx.pos + 1;
      skip_ws lx
    | '%' ->
      skip_line lx;
      skip_ws lx
    | '/' when at lx (lx.pos + 1) '*' ->
      lx.pos <- lx.pos + 2;
      skip_block lx;
      skip_ws lx
    | _ -> ()

let rec skip_alnum lx =
  if lx.pos < lx.len && is_alnum (String.unsafe_get lx.src lx.pos) then begin
    lx.pos <- lx.pos + 1;
    skip_alnum lx
  end

let rec skip_symbol lx =
  if lx.pos < lx.len && is_symbol_char (String.unsafe_get lx.src lx.pos) then begin
    lx.pos <- lx.pos + 1;
    skip_symbol lx
  end

(* Digits from [lx.pos] onward, accumulated onto [n]; [start] is the
   literal's first digit, where an overflow is reported. *)
let rec int_literal lx start n =
  if lx.pos < lx.len && is_digit (String.unsafe_get lx.src lx.pos) then begin
    let d = Char.code (String.unsafe_get lx.src lx.pos) - Char.code '0' in
    if n > (max_int - d) / 10 then
      raise (Error ("integer literal out of range", start));
    lx.pos <- lx.pos + 1;
    int_literal lx start ((n * 10) + d)
  end
  else n

(* The body of a quoted atom, from [lx.pos] (past the opening quote)
   to the closing quote, decoded into [buf]. *)
let rec quoted lx buf =
  if lx.pos >= lx.len then raise (Error ("unterminated quoted atom", lx.pos));
  match String.unsafe_get lx.src lx.pos with
  | '\'' when at lx (lx.pos + 1) '\'' ->
    lx.pos <- lx.pos + 2;
    Buffer.add_char buf '\'';
    quoted lx buf
  | '\'' -> lx.pos <- lx.pos + 1
  | '\\' ->
    lx.pos <- lx.pos + 1;
    if lx.pos >= lx.len then raise (Error ("unterminated escape", lx.pos));
    (match String.unsafe_get lx.src lx.pos with
    | 'n' -> Buffer.add_char buf '\n'
    | 't' -> Buffer.add_char buf '\t'
    | c -> Buffer.add_char buf c);
    lx.pos <- lx.pos + 1;
    quoted lx buf
  | c ->
    lx.pos <- lx.pos + 1;
    Buffer.add_char buf c;
    quoted lx buf

(* A name just scanned: applied if '(' follows at once. *)
let name_token lx name =
  if at lx lx.pos '(' then begin
    lx.pos <- lx.pos + 1;
    Functor_paren name
  end
  else Atom name

let run lx start = String.sub lx.src start (lx.pos - start)

(* End-of-clause '.' is a '.' followed by layout or EOF; otherwise '.' is
   a symbol char (e.g. the list functor never appears unquoted anyway). *)
let dot_ends_clause lx =
  let i = lx.pos + 1 in
  i >= lx.len
  ||
  match String.unsafe_get lx.src i with
  | ' ' | '\t' | '\n' | '\r' | '%' -> true
  | _ -> false

let punct lx tok =
  lx.pos <- lx.pos + 1;
  tok

let lex_one lx =
  skip_ws lx;
  if lx.pos >= lx.len then Eof
  else
    let start = lx.pos in
    match String.unsafe_get lx.src start with
    | '0' .. '9' -> Int (int_literal lx start 0)
    | 'a' .. 'z' ->
      skip_alnum lx;
      name_token lx (run lx start)
    | 'A' .. 'Z' | '_' ->
      skip_alnum lx;
      Var (run lx start)
    | '\'' ->
      lx.pos <- start + 1;
      let buf = Buffer.create 16 in
      quoted lx buf;
      name_token lx (Buffer.contents buf)
    | '.' when dot_ends_clause lx -> punct lx (Punct ".")
    | '(' -> punct lx (Punct "(")
    | ')' -> punct lx (Punct ")")
    | '[' -> punct lx (Punct "[")
    | ']' -> punct lx (Punct "]")
    | '{' -> punct lx (Punct "{")
    | '}' -> punct lx (Punct "}")
    | ',' -> punct lx (Punct ",")
    | '|' -> punct lx (Punct "|")
    | '!' -> punct lx (Atom "!")
    | ';' -> punct lx (Atom ";")
    | c when is_symbol_char c ->
      skip_symbol lx;
      name_token lx (run lx start)
    | c -> raise (Error (Printf.sprintf "unexpected character %C" c, start))

let next lx =
  if lx.has_peeked then begin
    lx.has_peeked <- false;
    lx.peeked
  end
  else lex_one lx

let peek lx =
  if lx.has_peeked then lx.peeked
  else begin
    let tok = lex_one lx in
    lx.peeked <- tok;
    lx.has_peeked <- true;
    tok
  end

let position lx = lx.pos
