(* Deterministic input generators for the benchmarks.

   The paper ran each benchmark "on relatively large input data" but
   does not publish it; these generators are sized so the 8-PE
   reference counts land in the order of magnitude of Table 2.  All
   randomness is a fixed-seed LCG, so every run sees the same input. *)

(* Park-Miller-ish LCG over 31 bits. *)
let lcg seed =
  let state = ref (if seed = 0 then 123456789 else seed) in
  fun bound ->
    state := (!state * 1103515245) + 12345;
    let v = (!state lsr 16) land 0x7fffffff in
    v mod bound

(* ------------------------------------------------------------------ *)
(* deriv: a composite expression over x with the full operator set.   *)

let rec deriv_expr rnd depth =
  if depth = 0 then begin
    match rnd 3 with
    | 0 -> "x"
    | 1 -> string_of_int (1 + rnd 9)
    | _ -> "x"
  end
  else begin
    let sub () = deriv_expr rnd (depth - 1) in
    match rnd 8 with
    | 0 -> Printf.sprintf "(%s + %s)" (sub ()) (sub ())
    | 1 -> Printf.sprintf "(%s - %s)" (sub ()) (sub ())
    | 2 | 3 -> Printf.sprintf "(%s * %s)" (sub ()) (sub ())
    | 4 -> Printf.sprintf "(%s / %s)" (sub ()) (sub ())
    | 5 -> Printf.sprintf "exp(%s)" (sub ())
    | 6 -> Printf.sprintf "log(%s)" (sub ())
    | _ -> Printf.sprintf "(%s ^ %d)" (sub ()) (2 + rnd 3)
  end

(* [deriv_query ~depth ~iterations] differentiates a dense expression
   tree [iterations] times through the failure-driven driver, which
   rolls the heap back between iterations (the storage-reuse pattern of
   the period's benchmarks). *)
let deriv_query ?(depth = 8) ?(iterations = 10) ?(seed = 42) () =
  let rnd = lcg seed in
  Printf.sprintf "dbench(%s, %d)" (deriv_expr rnd depth) iterations

(* ------------------------------------------------------------------ *)
(* tak                                                                *)

let tak_query ?(x = 12) ?(y = 7) ?(z = 3) () =
  Printf.sprintf "tak(%d, %d, %d, A)" x y z

(* ------------------------------------------------------------------ *)
(* qsort: a fixed pseudo-random integer list.                         *)

let random_list ~n ~seed ~bound =
  let rnd = lcg seed in
  List.init n (fun _ -> rnd bound)

let qsort_query ?(n = 900) ?(seed = 7) () =
  let elems = random_list ~n ~seed ~bound:10000 in
  Printf.sprintf "qsort([%s], S)"
    (String.concat ", " (List.map string_of_int elems))

(* ------------------------------------------------------------------ *)
(* matrix: an n x n integer matrix (squared).                         *)

let matrix_text ~n ~seed =
  let rnd = lcg seed in
  let row () =
    Printf.sprintf "[%s]"
      (String.concat ", " (List.init n (fun _ -> string_of_int (rnd 100))))
  in
  Printf.sprintf "[%s]" (String.concat ", " (List.init n (fun _ -> row ())))

let matrix_query ?(n = 15) ?(seed = 3) () =
  let a = matrix_text ~n ~seed in
  let b = matrix_text ~n ~seed:(seed + 1) in
  Printf.sprintf "matrix(%s, %s, C)" a b

(* ------------------------------------------------------------------ *)
(* Assembled benchmark set (paper defaults).                          *)

let default_benchmarks () =
  [
    {
      Programs.name = "deriv";
      src = Programs.deriv;
      query = deriv_query ();
      answer_var = "";
    };
    {
      Programs.name = "tak";
      src = Programs.tak;
      query = tak_query ();
      answer_var = "A";
    };
    {
      Programs.name = "qsort";
      src = Programs.qsort;
      query = qsort_query ();
      answer_var = "S";
    };
    {
      Programs.name = "matrix";
      src = Programs.matrix;
      query = matrix_query ();
      answer_var = "C";
    };
  ]

(* Smaller variants for quick tests. *)
let small_benchmarks () =
  [
    {
      Programs.name = "deriv";
      src = Programs.deriv;
      query = deriv_query ~depth:5 ~iterations:3 ();
      answer_var = "";
    };
    {
      Programs.name = "tak";
      src = Programs.tak;
      query = tak_query ~x:10 ~y:6 ~z:2 ();
      answer_var = "A";
    };
    {
      Programs.name = "qsort";
      src = Programs.qsort;
      query = qsort_query ~n:80 ();
      answer_var = "S";
    };
    {
      Programs.name = "matrix";
      src = Programs.matrix;
      query = matrix_query ~n:6 ();
      answer_var = "C";
    };
  ]

let benchmark ?(quick = false) name =
  let pool = if quick then small_benchmarks () else default_benchmarks () in
  match List.find_opt (fun b -> b.Programs.name = name) pool with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Inputs.benchmark: unknown %S" name)
