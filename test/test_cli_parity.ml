(* The two interactive front ends must agree on what they measure:
   [repl --time] and [rapwam_run --profile --stats] run the same
   compiled program through the same machine, so their inference
   counts over a benchmark must be identical.  The checking CLIs keep
   their exit-status contract.  Exercised end-to-end through the built
   binaries (the dune test deps pin them). *)

(* The binaries live next to the test inside _build
   (.../default/test/test_main.exe -> .../default/bin/<name>.exe);
   resolving against the running executable works from any cwd. *)
let bin name =
  Filename.concat
    (Filename.concat
       (Filename.dirname (Filename.dirname Sys.executable_name))
       "bin")
    name

let repl_exe = bin "repl.exe"
let rapwam_run_exe = bin "rapwam_run.exe"
let serve_exe = bin "serve.exe"
let certify_exe = bin "certify.exe"

let small name =
  List.find
    (fun (b : Benchlib.Programs.benchmark) -> b.Benchlib.Programs.name = name)
    (Benchlib.Inputs.small_benchmarks ())

let run_capture cmd =
  let ic = Unix.open_process_in cmd in
  let b = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Buffer.contents b
  | _ -> Alcotest.failf "command failed: %s\n%s" cmd (Buffer.contents b)

let is_digit c = c >= '0' && c <= '9'

(* The integer immediately before [marker] in [out]. *)
let int_before out marker =
  let n = String.length out and m = String.length marker in
  let rec find i =
    if i + m > n then
      Alcotest.failf "no %S in output:\n%s" marker out
    else if String.sub out i m = marker then i
    else find (i + 1)
  in
  let stop = find 0 in
  let start = ref stop in
  while !start > 0 && is_digit out.[!start - 1] do
    decr start
  done;
  if !start = stop then
    Alcotest.failf "no digits before %S in output:\n%s" marker out;
  int_of_string (String.sub out !start (stop - !start))

(* The integer immediately after [marker]. *)
let int_after out marker =
  let n = String.length out and m = String.length marker in
  let rec find i =
    if i + m > n then
      Alcotest.failf "no %S in output:\n%s" marker out
    else if String.sub out i m = marker then i + m
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < n && is_digit out.[!stop] do
    incr stop
  done;
  if !stop = start then
    Alcotest.failf "no digits after %S in output:\n%s" marker out;
  int_of_string (String.sub out start (!stop - start))

let with_source (b : Benchlib.Programs.benchmark) f =
  let path = Filename.temp_file ("parity_" ^ b.Benchlib.Programs.name) ".pl" in
  let oc = open_out path in
  output_string oc b.Benchlib.Programs.src;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* repl always loads the prelude, so rapwam_run gets [--prelude] to
   compile the identical source text. *)
let parity_check name =
  let b = small name in
  with_source b @@ fun path ->
  let direct =
    run_capture
      (Printf.sprintf "%s --pes 4 --prelude --profile --stats --query %s %s"
         rapwam_run_exe
         (Filename.quote b.Benchlib.Programs.query)
         (Filename.quote path))
  in
  let repl =
    run_capture
      (Printf.sprintf "printf '%%s.\\n' %s | %s --pes 4 --time %s"
         (Filename.quote b.Benchlib.Programs.query)
         repl_exe (Filename.quote path))
  in
  let direct_inf = int_after direct "inferences   : " in
  let repl_inf = int_before repl " inferences" in
  Alcotest.(check int)
    (name ^ ": repl --time inferences = rapwam_run --profile")
    direct_inf repl_inf;
  (* both front ends print the same per-predicate profile table *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) (name ^ ": repl prints a profile") true
    (contains repl "calls");
  Alcotest.(check bool) (name ^ ": rapwam_run prints a profile") true
    (contains direct "calls");
  Alcotest.(check bool) (name ^ ": counts positive") true (direct_inf > 0)

let test_parity_deriv () = parity_check "deriv"
let test_parity_qsort () = parity_check "qsort"

(* Bad input to serve must die with exit 2 (a usage error, distinct
   from the invariant-failure 4 and the injected-crash 70) and say
   what was wrong. *)
let run_expect_failure cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let b = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents b)

let test_serve_rejects_duplicate_faults () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  match
    run_expect_failure
      (Printf.sprintf
         "%s --quick --requests 10 --faults 'sim-step:eio@3,sim-step:crash@3'"
         serve_exe)
  with
  | Unix.WEXITED code, out ->
    Alcotest.(check bool) "non-zero usage-error exit" true
      (code = 1 || code = 2);
    Alcotest.(check bool) "stderr says duplicate" true
      (contains out "duplicate");
    Alcotest.(check bool) "stderr names the site" true
      (contains out "sim-step")
  | _, out -> Alcotest.failf "serve did not exit normally:\n%s" out

(* certify: 0 clean, 1 flagged (under --defect: detected), 124 for a
   usage error such as another analysis' defect, and a failed --json
   write is one line and 123 -- neither 1 nor an uncaught exception. *)
let test_certify_exit_status () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let status args =
    match
      run_expect_failure
        (Printf.sprintf "%s --quick --bench qsort --pes 4 %s" certify_exe args)
    with
    | Unix.WEXITED code, out -> (code, out)
    | _, out -> Alcotest.failf "certify %s did not exit normally:\n%s" args out
  in
  List.iter
    (fun (analysis, defect, foreign) ->
      let expect what args code =
        let got, out = status ("--analysis " ^ analysis ^ " " ^ args) in
        if got <> code then
          Alcotest.failf "%s %s: expected exit %d, got %d\n%s" analysis what code
            got out
      in
      expect "clean" "" 0;
      expect "defect" ("--defect " ^ defect) 1;
      expect "foreign defect" ("--defect " ^ foreign) 124)
    [
      ("refmap", "trail-blind", "force_certify");
      ("detan", "guard_operands", "rigid_any");
      ("bindan", "rigid_any", "env-blind");
    ];
  let code, out =
    status "--analysis refmap --json /nonexistent-dir/certify.json"
  in
  Alcotest.(check int) "bad --json path exits 123, not 1" 123 code;
  Alcotest.(check bool) "no uncaught exception" false
    (contains out "exception" || contains out "Fatal error");
  Alcotest.(check bool) "names the path" true
    (contains out "/nonexistent-dir/certify.json")

let suite =
  [
    Alcotest.test_case "repl/rapwam_run agree on deriv" `Quick
      test_parity_deriv;
    Alcotest.test_case "repl/rapwam_run agree on qsort" `Quick
      test_parity_qsort;
    Alcotest.test_case "serve rejects duplicate --faults entries" `Quick
      test_serve_rejects_duplicate_faults;
    Alcotest.test_case "certify exit-status contract" `Quick
      test_certify_exit_status;
  ]
