(* Obs.Json: the printer's fixed layout, and print-then-parse through
   the strict reader in json_reader.ml over random values. *)

open Obs.Json

(* Every layout rule once, plus the float and string rules that can be
   pinned by eye. *)
let test_layout_pinned () =
  let v =
    Obj
      [
        ("schema", String "x/1");
        ("n", Int (-3));
        ( "rows",
          List
            [
              Obj [ ("a", Int 1); ("b", List [ Bool true; Null ]) ];
              List [ Int 2; Obj [] ];
            ] );
        ("empty", List []);
        ("nested", Obj [ ("none", Obj []); ("xs", List []) ]);
        ( "floats",
          List
            [
              Float 0.0; Float (-0.0); Float 2.0; Float 0.1; Float (1. /. 3.);
              Float 1e100; Float 9007199254740992.; Float 5e-324;
              Float Float.nan; Float Float.infinity;
            ] );
        ("text", String "q\"b\\n\nt\tr\r\001\031\127 caf\xc3\xa9 caf\xe9 \xc3");
      ]
  in
  let expected =
    {|{
  "schema": "x/1",
  "n": -3,
  "rows": [
    {"a": 1, "b": [true, null]},
    [2, {}]
  ],
  "empty": [],
  "nested": {"none": {}, "xs": []},
  "floats": [
    0.0,
    -0.0,
    2.0,
    0.1,
    0.33333333333333331,
    1e+100,
    9007199254740992.0,
    4.94065645841247e-324,
    null,
    null
  ],
  "text": "q\"b\\n\nt\tr\r\u0001\u001f|}
    ^ "\127"
    ^ {| café caf\u00e9 \u00c3"
}
|}
  in
  Alcotest.(check string) "object layout" expected (to_string v);
  Alcotest.(check string)
    "array layout" "[\n  [1, [2]],\n  {\"k\": [3]}\n]\n"
    (to_string
       (List [ List [ Int 1; List [ Int 2 ] ]; Obj [ ("k", List [ Int 3 ]) ] ]));
  Alcotest.(check string) "empty object" "{}\n" (to_string (Obj []));
  Alcotest.(check string) "empty array" "[]\n" (to_string (List []));
  Alcotest.(check string) "scalar" "\"s\"\n" (to_string (String "s"))

(* ---------------- print, then parse strictly ---------------- *)

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (* any bit pattern: subnormals, NaNs and infinities included *)
        (3, map Int64.float_of_bits int64);
        (2, map float_of_int (int_range (-1_000_000) 1_000_000));
        (2, float);
        ( 1,
          oneofl
            [
              Float.nan; Float.infinity; Float.neg_infinity; 0.; -0.; 5e-324;
              Float.min_float; Float.max_float; 9007199254740993.; 1e21; 0.1;
            ] );
      ])

let gen_uchar =
  QCheck.Gen.(
    map Uchar.of_int
      (oneof
         [
           0 -- 0x7f; 0x80 -- 0x7ff; 0x800 -- 0xd7ff; 0xe000 -- 0xffff;
           0x10000 -- 0x10ffff;
         ]))

let utf_8 us =
  let b = Buffer.create 16 in
  List.iter (Buffer.add_utf_8_uchar b) us;
  Buffer.contents b

(* Arbitrary bytes, the bytes the escaper treats specially, and valid
   multi-byte UTF-8. *)
let gen_string =
  QCheck.Gen.(
    frequency
      [
        (2, string_size ~gen:char (0 -- 12));
        ( 2,
          string_size
            ~gen:
              (oneofl
                 [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\031'; '\127'; 'a';
                   '\xc3'; '\xa9'; '\xe9'; '\xed'; '\xf4'; '\xff' ])
            (0 -- 8) );
        (2, map utf_8 (list_size (0 -- 6) gen_uchar));
      ])

let gen_value =
  QCheck.Gen.(
    sized_size (0 -- 3)
    @@ fix (fun self depth ->
           let leaf =
             frequency
               [
                 (1, return Null);
                 (1, map (fun b -> Bool b) bool);
                 (2, map (fun i -> Int i) int);
                 (3, map (fun x -> Float x) gen_float);
                 (3, map (fun s -> String s) gen_string);
               ]
           in
           if depth = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> List l) (list_size (0 -- 4) (self (depth - 1))));
                 ( 1,
                   map
                     (fun kvs -> Obj kvs)
                     (list_size (0 -- 4) (pair gen_string (self (depth - 1))))
                 );
               ]))

(* Valid UTF-8 reads back unchanged; anything else still reads back as
   valid UTF-8 (the escaper's Latin-1 reading of the bad bytes). *)
let same_string s t =
  if String.is_valid_utf_8 s then String.equal s t else String.is_valid_utf_8 t

let rec agrees printed parsed =
  match (printed, parsed) with
  | Float x, Null -> not (Float.is_finite x)
  | Float x, Float y ->
    Float.is_finite x && Int64.bits_of_float x = Int64.bits_of_float y
  | String s, String t -> same_string s t
  | List xs, List ys ->
    List.length xs = List.length ys && List.for_all2 agrees xs ys
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k, v) (k', w) -> same_string k k' && agrees v w)
         xs ys
  | (Null | Bool _ | Int _), _ -> printed = parsed
  | _ -> false

let prop_print_parse =
  QCheck.Test.make ~name:"printed values parse strictly and read back"
    ~count:2000
    (QCheck.make ~print:(fun v -> String.escaped (to_string v)) gen_value)
    (fun v -> agrees v (Json_reader.of_string (to_string v)))

let suite =
  [
    Alcotest.test_case "printer layout is pinned" `Quick test_layout_pinned;
    QCheck_alcotest.to_alcotest prop_print_parse;
  ]
