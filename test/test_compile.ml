(* Unit tests for the Prolog-to-WAM compiler: emitted instruction
   shapes for canonical clauses (LCO, environments, indexing, cut,
   parcall compilation), checked on the code listing. *)

let compile ?(parallel = true) src =
  Wam.Program.prepare ~parallel ~src ~query:"true" ()

let instructions prog name arity =
  let fid =
    Wam.Symbols.functor_ prog.Wam.Program.symbols name arity
  in
  match Wam.Code.entry prog.Wam.Program.code fid with
  | None -> Alcotest.failf "no entry for %s/%d" name arity
  | Some entry ->
    (* read instructions until the next predicate would plausibly start;
       for tests we just take a window *)
    List.init 40 (fun i ->
        if entry + i < Wam.Code.length prog.Wam.Program.code then
          Some (Wam.Code.fetch prog.Wam.Program.code (entry + i))
        else None)
    |> List.filter_map (fun x -> x)

let has_opcode instrs op =
  List.exists (fun i -> Wam.Instr.opcode_name (Wam.Instr.opcode i) = op) instrs

let count_opcode instrs op =
  List.length
    (List.filter
       (fun i -> Wam.Instr.opcode_name (Wam.Instr.opcode i) = op)
       instrs)

(* take instructions up to and including the first control transfer
   that ends a clause (execute/proceed) *)
let clause_window instrs =
  let rec go acc = function
    | [] -> List.rev acc
    | i :: rest -> begin
      match Wam.Instr.opcode_name (Wam.Instr.opcode i) with
      | "execute" | "proceed" | "halt" -> List.rev (i :: acc)
      | _ -> go (i :: acc) rest
    end
  in
  go [] instrs

let test_fact_is_proceed () =
  let prog = compile "f(a)." in
  match clause_window (instructions prog "f" 1) with
  | [ Wam.Instr.Get_constant _; Wam.Instr.Proceed ] -> ()
  | w -> Alcotest.failf "unexpected shape (%d instrs)" (List.length w)

let test_lco_single_call_no_env () =
  (* one body call in final position: execute, no allocate *)
  let prog = compile "f(X) :- g(X).\ng(_)." in
  let w = clause_window (instructions prog "f" 1) in
  Alcotest.(check bool) "no allocate" false (has_opcode w "allocate");
  Alcotest.(check bool) "ends in execute" true (has_opcode w "execute")

let test_two_calls_need_env () =
  let prog = compile "f(X) :- g(X), h(X).\ng(_). h(_)." in
  let w = clause_window (instructions prog "f" 1) in
  Alcotest.(check bool) "allocate" true (has_opcode w "allocate");
  Alcotest.(check bool) "one call" true (count_opcode w "call" = 1);
  Alcotest.(check bool) "deallocate before execute" true
    (has_opcode w "deallocate" && has_opcode w "execute")

let test_builtin_only_no_env () =
  let prog = compile "f(X) :- X > 1." in
  let w = clause_window (instructions prog "f" 1) in
  Alcotest.(check bool) "no allocate" false (has_opcode w "allocate");
  Alcotest.(check bool) "builtin then proceed" true
    (has_opcode w "builtin" && has_opcode w "proceed")

let test_neck_cut () =
  let prog = compile "f(X) :- X > 0, !, g(X).\nf(_).\ng(_)." in
  let found = ref false in
  (* scan the whole code for a neck_cut *)
  for i = 0 to Wam.Code.length prog.Wam.Program.code - 1 do
    if Wam.Code.fetch prog.Wam.Program.code i = Wam.Instr.Neck_cut then
      found := true
  done;
  Alcotest.(check bool) "neck cut emitted" true !found

let test_deep_cut_uses_get_level () =
  let prog = compile "f(X) :- g(X), !, h(X).\ng(_). h(_)." in
  let w = instructions prog "f" 1 in
  Alcotest.(check bool) "get_level" true (has_opcode w "get_level");
  Alcotest.(check bool) "cut_to" true (has_opcode w "cut_to")

let test_first_arg_indexing_switch () =
  let prog = compile "f(a, 1). f(b, 2). f([H|_], H). f(7, seven)." in
  let w = instructions prog "f" 2 in
  match w with
  | Wam.Instr.Switch_on_term { var_l; con_l; int_l; lis_l; str_l } :: _ ->
    Alcotest.(check bool) "var chain" true (var_l >= 0);
    Alcotest.(check bool) "con target" true (con_l >= 0);
    Alcotest.(check bool) "int target" true (int_l >= 0);
    Alcotest.(check bool) "lis target" true (lis_l >= 0);
    (* no structure-headed clause and no var-headed fallback: fail *)
    Alcotest.(check int) "str target" (-1) str_l
  | _ -> Alcotest.fail "expected switch_on_term at entry"

let test_var_clause_in_buckets () =
  (* a var-headed clause must be reachable from every bucket *)
  let prog = compile "f(a, 1). f(X, X)." in
  let result, _ = Wam.Seq.solve ~src:"f(a, 1). f(X, X)." ~query:"f(b, R)" () in
  (match result with
  | Wam.Seq.Success b ->
    Alcotest.(check string) "var clause reached" "b"
      (Prolog.Pretty.to_string (List.assoc "R" b))
  | Wam.Seq.Failure -> Alcotest.fail "var clause unreachable");
  ignore prog

let test_single_clause_direct_entry () =
  let prog = compile "f(X) :- g(X).\ng(_)." in
  let w = instructions prog "f" 1 in
  match w with
  | first :: _ -> begin
    match Wam.Instr.opcode_name (Wam.Instr.opcode first) with
    | "switch_on_term" | "try" -> Alcotest.fail "single clause got a chain"
    | _ -> ()
  end
  | [] -> Alcotest.fail "no code"

let test_parcall_compilation_shape () =
  let prog = compile "f(X, Y) :- g(X) & g(Y).\ng(_)." in
  let w = instructions prog "f" 2 in
  Alcotest.(check int) "one alloc_parcall" 1 (count_opcode w "alloc_parcall");
  (* the first arm runs inline: exactly one push_goal for the second *)
  Alcotest.(check int) "one push_goal" 1 (count_opcode w "push_goal");
  Alcotest.(check int) "one par_join" 1 (count_opcode w "par_join");
  Alcotest.(check int) "inline call" 1 (count_opcode w "call");
  (* the join address is patched into the alloc *)
  List.iter
    (fun i ->
      match i with
      | Wam.Instr.Alloc_parcall (k, join) ->
        Alcotest.(check int) "one pushed goal" 1 k;
        Alcotest.(check bool) "join patched" true (join > 0)
      | _ -> ())
    w

let test_conditional_parcall_has_fallback () =
  let prog = compile "f(X, Y) :- (ground(X) | g(X) & g(Y)).\ng(_)." in
  let w = instructions prog "f" 2 in
  Alcotest.(check int) "check_ground" 1 (count_opcode w "check_ground");
  (* fallback: sequential calls after the jump over them *)
  Alcotest.(check bool) "jump" true (has_opcode w "jump");
  Alcotest.(check bool) "fallback calls" true (count_opcode w "call" >= 2)

let test_sequential_mode_flattens_parcall () =
  let prog = compile ~parallel:false "f(X, Y) :- g(X) & g(Y).\ng(_)." in
  let w = instructions prog "f" 2 in
  Alcotest.(check int) "no alloc_parcall" 0 (count_opcode w "alloc_parcall");
  Alcotest.(check int) "no push_goal" 0 (count_opcode w "push_goal");
  Alcotest.(check bool) "plain calls" true
    (count_opcode w "call" >= 1 && has_opcode w "execute")

let test_unsafe_value_for_body_origin_var () =
  (* X first occurs in a body goal and is passed in the last call:
     put_unsafe_value must be emitted *)
  let prog = compile "f(A) :- g(X), h(X, A).\ng(_). h(_, _)." in
  let w = instructions prog "f" 1 in
  Alcotest.(check bool) "unsafe put" true (has_opcode w "put_unsafe_value")

let test_void_head_arg_no_instruction () =
  let prog = compile "f(_, b)." in
  let w = clause_window (instructions prog "f" 2) in
  (* only the get_constant for 'b' and proceed *)
  Alcotest.(check int) "window" 2 (List.length w)

let test_structure_flattening () =
  let prog = compile "f(g(h(X)), X)." in
  let w = clause_window (instructions prog "f" 2) in
  Alcotest.(check int) "two get_structure" 2 (count_opcode w "get_structure");
  Alcotest.(check bool) "unify_variable" true (has_opcode w "unify_variable")

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* The listing prints one instruction per line, in address order,
   with no box of the caller's around it. *)
let test_listing_renders () =
  let prog = compile "append([], L, L). append([H|T], L, [H|R]) :- append(T, L, R)." in
  let s = Format.asprintf "%a" Wam.Program.pp_listing prog in
  Alcotest.(check bool) "has label" true (contains s "append/3");
  Alcotest.(check bool) "has get_list" true (contains s "get_list");
  let instr_lines =
    List.filter
      (fun l -> l <> "" && l.[String.length l - 1] <> ':')
      (String.split_on_char '\n' s)
  in
  Alcotest.(check int) "one line per instruction"
    (Wam.Code.length prog.Wam.Program.code)
    (List.length instr_lines);
  List.iteri
    (fun addr l ->
      let i = Wam.Code.fetch prog.Wam.Program.code addr in
      Alcotest.(check string) "the line is its instruction"
        (Format.asprintf "  %4d  %a" addr Wam.Instr.pp i)
        l)
    instr_lines

(* One opcode table: 40 distinct mnemonics, no numbering past the end,
   and every attribute value visible in the listing (the default ones
   print nothing).  A constant operand prints an atom as its id and an
   integer as #n. *)
let test_opcode_table () =
  let open Wam.Instr in
  Alcotest.(check int) "opcode count" 40 opcode_count;
  let names = List.init opcode_count opcode_name in
  Alcotest.(check int) "unique names" opcode_count
    (List.length (List.sort_uniq compare names));
  Alcotest.check_raises "past the table" (Invalid_argument "index out of bounds")
    (fun () -> ignore (opcode_name opcode_count));
  List.iter
    (fun (i, want) ->
      Alcotest.(check string) want want (Format.asprintf "%a" pp i))
    [
      (Try (7, Deep), "try 7");
      (Retry (7, Shallow), "retry 7 [shallow]");
      (Get_structure (3, 1, Plain), "get_structure 3, A1");
      (Get_list (2, Rigid), "get_list A2 [rigid]");
      (Get_value (Y 0, 2, Uncond), "get_value Y0, A2 [uncond]");
      (Get_constant (Wam.Cell.con Wam.Symbols.nil, 1, false), "get_constant 0, A1");
      (Get_constant (Wam.Cell.num 5, 1, true), "get_constant #5, A1 [uncond]");
      (Put_variable (X 4, 2, true), "put_variable X4, A2 [uncond]");
      (Builtin (Wam.Builtin.Is, 2, true), "builtin is/2 [uncond]");
    ]

let suite =
  [
    Alcotest.test_case "opcode table" `Quick test_opcode_table;
    Alcotest.test_case "fact" `Quick test_fact_is_proceed;
    Alcotest.test_case "LCO single call" `Quick test_lco_single_call_no_env;
    Alcotest.test_case "two calls env" `Quick test_two_calls_need_env;
    Alcotest.test_case "builtin-only no env" `Quick test_builtin_only_no_env;
    Alcotest.test_case "neck cut" `Quick test_neck_cut;
    Alcotest.test_case "deep cut" `Quick test_deep_cut_uses_get_level;
    Alcotest.test_case "switch_on_term" `Quick test_first_arg_indexing_switch;
    Alcotest.test_case "var clause buckets" `Quick test_var_clause_in_buckets;
    Alcotest.test_case "single clause entry" `Quick test_single_clause_direct_entry;
    Alcotest.test_case "parcall shape" `Quick test_parcall_compilation_shape;
    Alcotest.test_case "conditional parcall" `Quick
      test_conditional_parcall_has_fallback;
    Alcotest.test_case "sequential flattening" `Quick
      test_sequential_mode_flattens_parcall;
    Alcotest.test_case "unsafe value" `Quick test_unsafe_value_for_body_origin_var;
    Alcotest.test_case "void head arg" `Quick test_void_head_arg_no_instruction;
    Alcotest.test_case "structure flattening" `Quick test_structure_flattening;
    Alcotest.test_case "listing" `Quick test_listing_renders;
  ]
