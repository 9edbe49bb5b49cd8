type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_float b x =
  let s = Printf.sprintf "%.15g" x in
  let s = if float_of_string s = x then s else Printf.sprintf "%.17g" x in
  Buffer.add_string b s;
  if not (String.contains s '.' || String.contains s 'e') then
    Buffer.add_string b ".0"

let add_string b s =
  Buffer.add_char b '"';
  let rec go i =
    if i < String.length s then begin
      let d = String.get_utf_8_uchar s i in
      let n = Uchar.utf_decode_length d in
      (if not (Uchar.utf_decode_is_valid d) then
         for j = i to i + n - 1 do
           Printf.bprintf b "\\u%04x" (Char.code s.[j])
         done
       else
         match s.[i] with
         | '"' -> Buffer.add_string b "\\\""
         | '\\' -> Buffer.add_string b "\\\\"
         | '\n' -> Buffer.add_string b "\\n"
         | '\t' -> Buffer.add_string b "\\t"
         | '\r' -> Buffer.add_string b "\\r"
         | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
         | _ -> Buffer.add_substring b s i n);
      go (i + n)
    end
  in
  go 0;
  Buffer.add_char b '"'

(* A container's brackets around its items: [first] before the first
   item, [sep] between items, [last] after the last; nothing between
   the brackets when there are no items. *)
let seq b (first, sep, last) opening closing add items =
  Buffer.add_char b opening;
  (match items with
  | [] -> ()
  | x :: rest ->
    Buffer.add_string b first;
    add x;
    List.iter
      (fun x ->
        Buffer.add_string b sep;
        add x)
      rest;
    Buffer.add_string b last);
  Buffer.add_char b closing

let inline = ("", ", ", "")
let outer = ("\n  ", ",\n  ", "\n")
let member_lines = ("\n    ", ",\n    ", "\n  ")

let add_member b add (k, v) =
  add_string b k;
  Buffer.add_string b ": ";
  add v

let rec add_inline b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float x when Float.is_finite x -> add_float b x
  | Float _ -> Buffer.add_string b "null"
  | String s -> add_string b s
  | List xs -> seq b inline '[' ']' (add_inline b) xs
  | Obj kvs -> seq b inline '{' '}' (add_member b (add_inline b)) kvs

let to_string v =
  let b = Buffer.create 4096 in
  (match v with
  | List xs -> seq b outer '[' ']' (add_inline b) xs
  | Obj kvs ->
    let add_top = function
      | List xs -> seq b member_lines '[' ']' (add_inline b) xs
      | v -> add_inline b v
    in
    seq b outer '{' '}' (add_member b add_top) kvs
  | v -> add_inline b v);
  Buffer.add_char b '\n';
  Buffer.contents b
