(* Canonical forms for table keys and answers.

   A key is a byte code written in one pass over the call term: one
   tag byte per node, variables numbered in first-occurrence order,
   names length-prefixed, integers zigzag varints.  The code is
   self-delimiting, so equal codes are variant terms by construction.
   Answers keep their printed form: variables renamed _G0, _G1, ...
   in first-occurrence order, then printed. *)

open Prolog

type key = { spec : string; code : string; words : int }
type answer = (string * Term.t) list

(* ------------------------------------------------------------------ *)
(* The key code.  Node tags:
     'V' n          variable number n (first occurrence order)
     'I' z          integer, zigzag varint
     'N'            the atom []
     'A' len name   any other atom
     'L' h t        a '.'/2 list cell
     'S' n len name args   any other structure of arity n  *)

let rec add_varint b n =
  if n >= 0 && n < 0x80 then Buffer.add_char b (Char.unsafe_chr n)
  else begin
    Buffer.add_char b (Char.unsafe_chr (n land 0x7f lor 0x80));
    add_varint b (n lsr 7)
  end

let add_name b s =
  add_varint b (String.length s);
  Buffer.add_string b s

type enc = {
  buf : Buffer.t;
  vars : (string, int) Hashtbl.t;
  mutable words : int;
}

let rec encode e (t : Term.t) =
  e.words <- e.words + 1;
  match t with
  | Term.Var v ->
    Buffer.add_char e.buf 'V';
    add_varint e.buf
      (match Hashtbl.find_opt e.vars v with
      | Some n -> n
      | None ->
        let n = Hashtbl.length e.vars in
        Hashtbl.add e.vars v n;
        n)
  | Term.Int n ->
    Buffer.add_char e.buf 'I';
    add_varint e.buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))
  | Term.Atom "[]" -> Buffer.add_char e.buf 'N'
  | Term.Atom a ->
    Buffer.add_char e.buf 'A';
    add_name e.buf a
  | Term.Struct (".", [ h; tl ]) ->
    Buffer.add_char e.buf 'L';
    encode e h;
    encode e tl
  | Term.Struct (f, args) ->
    Buffer.add_char e.buf 'S';
    add_varint e.buf (List.length args);
    add_name e.buf f;
    encode_args e args

and encode_args e = function
  | [] -> ()
  | a :: rest ->
    encode e a;
    encode_args e rest

let key_of_term t =
  let spec =
    match Term.functor_of t with
    | Some (name, arity) -> name ^ "/" ^ string_of_int arity
    | None -> "?/0"
  in
  let e = { buf = Buffer.create 64; vars = Hashtbl.create 8; words = 0 } in
  encode e t;
  { spec; code = Buffer.contents e.buf; words = e.words }

let key_of_query q =
  match Parser.term_of_string q with
  | t -> Ok (key_of_term t)
  | exception Parser.Error (msg, pos) ->
    Error (Printf.sprintf "syntax error at %d: %s" pos msg)

(* The call a code was written from, its variables named _G0, _G1, ...
   by number: the term the key's printed text is made from. *)
let term_of_code code =
  let pos = ref 0 in
  let byte () =
    let c = code.[!pos] in
    incr pos;
    Char.code c
  in
  let rec varint shift acc =
    let c = byte () in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c < 0x80 then acc else varint (shift + 7) acc
  in
  let name () =
    let len = varint 0 0 in
    let s = String.sub code !pos len in
    pos := !pos + len;
    s
  in
  let rec node () =
    match Char.unsafe_chr (byte ()) with
    | 'V' -> Term.Var ("_G" ^ string_of_int (varint 0 0))
    | 'I' ->
      let z = varint 0 0 in
      Term.Int ((z lsr 1) lxor -(z land 1))
    | 'N' -> Term.nil
    | 'A' -> Term.Atom (name ())
    | 'L' ->
      let h = node () in
      Term.cons h (node ())
    | 'S' ->
      let arity = varint 0 0 in
      let f = name () in
      Term.Struct (f, args arity)
    | c -> invalid_arg (Printf.sprintf "Canon.term_of_code: tag %C" c)
  and args n =
    if n = 0 then []
    else
      let a = node () in
      a :: args (n - 1)
  in
  node ()

let text k = Pretty.to_string (term_of_code k.code)

(* ------------------------------------------------------------------ *)
(* Answers. *)

(* One renaming environment shared across a whole answer: the table
   maps source variable names to canonical ones. *)
let renamer () =
  let tbl = Hashtbl.create 16 in
  let next = ref 0 in
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some canon -> canon
    | None ->
      let canon = Printf.sprintf "_G%d" !next in
      incr next;
      Hashtbl.add tbl name canon;
      canon

let rec rename_with rn (t : Term.t) : Term.t =
  match t with
  | Term.Atom _ | Term.Int _ -> t
  | Term.Var v -> Term.Var (rn v)
  | Term.Struct (f, args) -> Term.Struct (f, List.map (rename_with rn) args)

let answer_text (a : answer) =
  let a = List.sort (fun (x, _) (y, _) -> compare x y) a in
  (* one renamer across all bindings: sharing between them survives *)
  let rn = renamer () in
  String.concat ", "
    (List.map
       (fun (v, t) ->
         Printf.sprintf "%s = %s" v (Pretty.to_string (rename_with rn t)))
       a)

let answer_words (a : answer) =
  List.fold_left (fun acc (_, t) -> acc + 1 + Term.size t) 0 a
