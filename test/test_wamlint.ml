(* Tests for the WAM bytecode verifier: every compiled benchmark must
   come out clean (parallel and sequential compilation), and
   hand-seeded defects must each be caught by the intended rule. *)

let rules diags =
  List.sort_uniq compare (List.map (fun d -> d.Wam.Wamlint.rule) diags)

let check_has rule diags =
  if not (List.exists (fun d -> d.Wam.Wamlint.rule = rule) diags) then
    Alcotest.failf "expected a %s diagnostic, got [%s]" rule
      (String.concat "; " (rules diags))

let check_clean label diags =
  if diags <> [] then
    Alcotest.failf "%s: expected no diagnostics, got [%s]" label
      (String.concat "; " (rules diags))

(* Hand-built code area with the fixed $halt / $goal_done prologue the
   compiler always emits at addresses 0 and 1. *)
let fixture build =
  let symbols = Wam.Symbols.create () in
  let code = Wam.Code.create () in
  ignore (Wam.Code.emit code Wam.Instr.Halt_ok);
  ignore (Wam.Code.emit code Wam.Instr.Goal_done);
  build symbols code;
  Wam.Wamlint.check symbols code

let entry symbols code name arity =
  let fid = Wam.Symbols.functor_ symbols name arity in
  Wam.Code.set_entry code fid ~arity (Wam.Code.here code);
  fid

let emit code i = ignore (Wam.Code.emit code i)

(* The constant [[]]. *)
let nil = Wam.Cell.con Wam.Symbols.nil

(* ---- clean fixtures: the verifier must be able to pass ---- *)

let test_clean_handmade () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 1);
        emit code (Get_constant (nil, 1, false));
        emit code Proceed)
  in
  check_clean "fact p(nil)" diags

let test_clean_env_roundtrip () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        let q = Wam.Symbols.functor_ symbols "q" 1 in
        ignore (entry symbols code "p" 1);
        emit code (Allocate 1);
        emit code (Get_variable (Y 0, 1));
        emit code (Put_value (Y 0, 1));
        emit code (Call q);
        emit code (Put_unsafe_value (0, 1));
        emit code Deallocate;
        emit code (Execute q);
        ignore (entry symbols code "q" 1);
        emit code (Get_constant (nil, 1, false));
        emit code Proceed)
  in
  check_clean "allocate/call/deallocate" diags

(* ---- seeded defects: each must fire its rule ---- *)

let test_use_before_def_x () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 0);
        (* X1 was never loaded: p/0 has no arguments *)
        emit code (Put_value (X 1, 2));
        emit code Proceed)
  in
  check_has "use-before-def" diags

let test_use_before_def_y () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 0);
        emit code (Allocate 1);
        (* Y0 read before anything was stored in it *)
        emit code (Put_value (Y 0, 1));
        emit code Deallocate;
        emit code Proceed)
  in
  check_has "use-before-def" diags

let test_bad_env_slot () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 0);
        emit code (Allocate 1);
        (* Y3 is outside the 1-slot environment *)
        emit code (Get_level 3);
        emit code Deallocate;
        emit code Proceed)
  in
  check_has "bad-env-slot" diags

let test_no_env () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 0);
        (* cut through an environment that was never allocated *)
        emit code (Cut_to 0);
        emit code Proceed)
  in
  check_has "no-env" diags

let test_broken_trust_chain () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        let clause = Wam.Code.here code in
        emit code Proceed;
        ignore (entry symbols code "p" 0);
        (* trust without a preceding try/retry *)
        emit code (Trust (clause, Deep)))
  in
  check_has "broken-chain" diags

(* Deep and shallow chains may not mix: a shallow try continued by a
   deep trust is broken, the same chain with matching kinds is not. *)
let test_mixed_chain () =
  let chain second =
    fixture (fun symbols code ->
        let open Wam.Instr in
        let clause = Wam.Code.here code in
        emit code Proceed;
        ignore (entry symbols code "p" 0);
        emit code (Try (clause, Shallow));
        emit code (Trust (clause, second)))
  in
  check_has "broken-chain" (chain Wam.Instr.Deep);
  check_clean "shallow try/trust" (chain Wam.Instr.Shallow)

let test_orphan_shallow_retry () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        let clause = Wam.Code.here code in
        emit code Proceed;
        ignore (entry symbols code "p" 0);
        (* the chain's head pushes no frame for the retry to update *)
        emit code (Retry (clause, Shallow));
        emit code (Trust (clause, Shallow)))
  in
  check_has "orphan-chain" diags

let test_uncond_write () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 1);
        (* only =/2 and is/2 may run with trailing elided *)
        emit code (Builtin (Wam.Builtin.Write_t, 1, true));
        emit code Proceed)
  in
  check_has "nt-builtin" diags

let test_dangling_frame () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 0);
        emit code (Allocate 0);
        emit code Deallocate;
        (* deallocate must be followed by execute/proceed *)
        emit code (Jump 0))
  in
  check_has "dangling-frame" diags

let test_undefined_predicate () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        let q = Wam.Symbols.functor_ symbols "q" 0 in
        ignore (entry symbols code "p" 0);
        emit code (Execute q))
  in
  check_has "undefined-predicate" diags

let test_bad_join () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 0);
        (* join address 0 holds Halt_ok, not Par_join *)
        emit code (Alloc_parcall (0, 0));
        emit code Par_join;
        emit code Proceed)
  in
  check_has "bad-join" diags

let test_missing_pushed_goal () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        let q = Wam.Symbols.functor_ symbols "q" 0 in
        ignore (entry symbols code "p" 0);
        let ap = Wam.Code.emit code (Alloc_parcall (2, 0)) in
        emit code (Push_goal (0, q, 0));
        (* only one of the two declared goals is pushed *)
        let join = Wam.Code.emit code Par_join in
        Wam.Code.patch code ap (Alloc_parcall (2, join));
        emit code Proceed;
        ignore (entry symbols code "q" 0);
        emit code Proceed)
  in
  check_has "bad-parcall" diags

let test_push_outside_parcall () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        let q = Wam.Symbols.functor_ symbols "q" 0 in
        ignore (entry symbols code "p" 0);
        emit code (Push_goal (0, q, 0));
        emit code Proceed;
        ignore (entry symbols code "q" 0);
        emit code Proceed)
  in
  check_has "bad-parcall" diags

let test_parcall_cut () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        let q = Wam.Symbols.functor_ symbols "q" 0 in
        ignore (entry symbols code "p" 0);
        let ap = Wam.Code.emit code (Alloc_parcall (1, 0)) in
        emit code (Push_goal (0, q, 0));
        (* cutting here would discard the pushed sibling *)
        emit code Neck_cut;
        let join = Wam.Code.emit code Par_join in
        Wam.Code.patch code ap (Alloc_parcall (1, join));
        emit code Proceed;
        ignore (entry symbols code "q" 0);
        emit code Proceed)
  in
  check_has "parcall-cut" diags

let test_parcall_check () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        let q = Wam.Symbols.functor_ symbols "q" 0 in
        ignore (entry symbols code "p" 1);
        let ap = Wam.Code.emit code (Alloc_parcall (1, 0)) in
        (* the CGE condition must run before the frame is allocated *)
        let ck = Wam.Code.emit code (Check_ground (X 1, 0)) in
        emit code (Push_goal (0, q, 0));
        let join = Wam.Code.emit code Par_join in
        Wam.Code.patch code ap (Alloc_parcall (1, join));
        let out = Wam.Code.emit code Proceed in
        Wam.Code.patch code ck (Check_ground (X 1, out));
        ignore (entry symbols code "q" 0);
        emit code Proceed)
  in
  check_has "parcall-check" diags

let test_shared_write_unframed () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        let q = Wam.Symbols.functor_ symbols "q" 0 in
        ignore (entry symbols code "p" 0);
        (* goal-frame write with no parcall frame open *)
        emit code (Push_goal (0, q, 0));
        emit code Proceed;
        ignore (entry symbols code "q" 0);
        emit code Proceed)
  in
  check_has "shared-write-unframed" diags

let test_stray_unify () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 0);
        (* no get_structure/put_structure opened a unify context *)
        emit code (Unify_constant nil);
        emit code Proceed)
  in
  check_has "stray-unify" diags

let test_unreachable () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 0);
        emit code Proceed;
        (* dead code after the clause, no entry points here *)
        emit code (Get_constant (nil, 1, false)))
  in
  check_has "unreachable" diags

let test_trail_discipline_clean () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 1);
        emit code (Allocate 1);
        emit code (Get_level 0);
        emit code (Get_constant (nil, 1, false));
        emit code (Cut_to 0);
        emit code Deallocate;
        emit code Proceed)
  in
  check_clean "get_level/cut_to pair" diags

let test_trail_discipline_no_get_level () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 1);
        emit code (Allocate 1);
        (* Y0 is defined, but by get_variable, not get_level *)
        emit code (Get_variable (Y 0, 1));
        emit code (Cut_to 0);
        emit code Deallocate;
        emit code Proceed)
  in
  check_has "trail-discipline" diags

let test_trail_discipline_clobbered_level () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 1);
        emit code (Allocate 1);
        emit code (Get_level 0);
        (* an ordinary store overwrites the saved level *)
        emit code (Get_variable (Y 0, 1));
        emit code (Cut_to 0);
        emit code Deallocate;
        emit code Proceed)
  in
  check_has "trail-discipline" diags

let test_trail_discipline_partial_path () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 1);
        emit code (Allocate 1);
        (* the level is saved on only one of the two paths to the cut *)
        let sw = Wam.Code.emit code (Get_constant (nil, 1, false)) in
        ignore sw;
        let branch = Wam.Code.emit code (Jump 0) in
        emit code (Get_level 0);
        let cut = Wam.Code.emit code (Cut_to 0) in
        emit code Deallocate;
        emit code Proceed;
        (* the other path defines Y0 without get_level and joins *)
        let alt = Wam.Code.here code in
        emit code (Get_variable (Y 0, 1));
        emit code (Jump cut);
        Wam.Code.patch code branch (Check_ground (X 1, alt)))
  in
  check_has "trail-discipline" diags

let test_bad_target () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 0);
        emit code (Jump 999))
  in
  check_has "bad-target" diags

(* Environment-size drift: the frame allocated at entry reaches
   proceed through a path that ran only builtins, so no call could
   excuse keeping it -- every activation leaks one frame. *)
let test_env_drift () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        ignore (entry symbols code "p" 0);
        emit code (Allocate 2);
        emit code (Builtin (Wam.Builtin.True_b, 0, false));
        emit code Proceed)
  in
  check_has "env-drift" diags

let check_lacks rule diags =
  if List.exists (fun d -> d.Wam.Wamlint.rule = rule) diags then
    Alcotest.failf "did not expect a %s diagnostic" rule

(* A leak past a real call is still a frame-leak, but not drift: the
   call could have needed the frame, so only the generic rule fires. *)
let test_env_drift_needs_builtin_only () =
  let diags =
    fixture (fun symbols code ->
        let open Wam.Instr in
        let q = Wam.Symbols.functor_ symbols "q" 0 in
        ignore (entry symbols code "p" 0);
        emit code (Allocate 2);
        emit code (Call q);
        emit code Proceed;
        ignore (entry symbols code "q" 0);
        emit code Proceed)
  in
  check_has "frame-leak" diags;
  check_lacks "env-drift" diags

(* ---- every shipped benchmark compiles clean ---- *)

let all_benchmarks () =
  Benchlib.Inputs.small_benchmarks () @ Benchlib.Large.population ()

let lint_benchmarks ~parallel () =
  List.iter
    (fun (b : Benchlib.Programs.benchmark) ->
      let prog =
        Wam.Program.prepare ~parallel ~src:b.Benchlib.Programs.src
          ~query:b.Benchlib.Programs.query ()
      in
      check_clean b.Benchlib.Programs.name (Wam.Wamlint.check_program prog))
    (all_benchmarks ())

let test_benchmarks_clean_parallel () = lint_benchmarks ~parallel:true ()
let test_benchmarks_clean_sequential () = lint_benchmarks ~parallel:false ()

let suite =
  [
    Alcotest.test_case "clean handmade code" `Quick test_clean_handmade;
    Alcotest.test_case "clean env roundtrip" `Quick test_clean_env_roundtrip;
    Alcotest.test_case "use-before-def X" `Quick test_use_before_def_x;
    Alcotest.test_case "use-before-def Y" `Quick test_use_before_def_y;
    Alcotest.test_case "bad env slot" `Quick test_bad_env_slot;
    Alcotest.test_case "no env" `Quick test_no_env;
    Alcotest.test_case "broken trust chain" `Quick test_broken_trust_chain;
    Alcotest.test_case "shallow try, deep trust" `Quick test_mixed_chain;
    Alcotest.test_case "chain headed by a shallow retry" `Quick
      test_orphan_shallow_retry;
    Alcotest.test_case "write/1 with trailing elided" `Quick test_uncond_write;
    Alcotest.test_case "dangling frame" `Quick test_dangling_frame;
    Alcotest.test_case "undefined predicate" `Quick test_undefined_predicate;
    Alcotest.test_case "bad parcall join" `Quick test_bad_join;
    Alcotest.test_case "missing pushed goal" `Quick test_missing_pushed_goal;
    Alcotest.test_case "push outside parcall" `Quick test_push_outside_parcall;
    Alcotest.test_case "cut inside parcall region" `Quick test_parcall_cut;
    Alcotest.test_case "check inside parcall region" `Quick test_parcall_check;
    Alcotest.test_case "shared write unframed" `Quick
      test_shared_write_unframed;
    Alcotest.test_case "stray unify" `Quick test_stray_unify;
    Alcotest.test_case "unreachable code" `Quick test_unreachable;
    Alcotest.test_case "trail discipline clean" `Quick
      test_trail_discipline_clean;
    Alcotest.test_case "trail discipline: no get_level" `Quick
      test_trail_discipline_no_get_level;
    Alcotest.test_case "trail discipline: clobbered level" `Quick
      test_trail_discipline_clobbered_level;
    Alcotest.test_case "trail discipline: partial path" `Quick
      test_trail_discipline_partial_path;
    Alcotest.test_case "bad jump target" `Quick test_bad_target;
    Alcotest.test_case "env drift (builtin-only leak)" `Quick test_env_drift;
    Alcotest.test_case "env drift needs builtin-only path" `Quick
      test_env_drift_needs_builtin_only;
    Alcotest.test_case "benchmarks clean (parallel)" `Quick
      test_benchmarks_clean_parallel;
    Alcotest.test_case "benchmarks clean (sequential)" `Quick
      test_benchmarks_clean_sequential;
  ]
