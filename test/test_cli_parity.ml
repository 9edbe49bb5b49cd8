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

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

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

(* Bad input to serve must die with cmdliner's usage-error exit 124
   (distinct from the invariant-failure 4) and say what was wrong. *)
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
    Alcotest.(check int) "cmdliner usage-error exit" 124 code;
    Alcotest.(check bool) "stderr says duplicate" true
      (contains out "duplicate");
    Alcotest.(check bool) "stderr names the site" true
      (contains out "sim-step")
  | _, out -> Alcotest.failf "serve did not exit normally:\n%s" out

(* Exit status and stderr lines of [cmd]; stdout is discarded. *)
let run_stderr cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>&1 >/dev/null") in
  let lines = In_channel.input_lines ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (code, lines)
  | _ -> Alcotest.failf "%s did not exit normally" cmd

let with_file text f =
  let path = Filename.temp_file "parity_prog" ".pl" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f (Filename.quote path))

(* A typed program error, or a durable input file (trace, journal,
   memo snapshot) that cannot be read or is damaged or foreign, is one
   stderr line and exit 65 from every CLI that takes one, never
   cmdliner's uncaught-exception report. *)
let test_typed_errors_exit_65 () =
  let expect ?(prefix = "") cmd ~names =
    let code, lines = run_stderr cmd in
    if code <> 65 || List.length lines <> 1 || not (contains (String.concat "\n" lines) names)
       || contains (String.concat "\n" lines) "uncaught exception"
       || not (String.starts_with ~prefix (List.hd lines))
    then
      Alcotest.failf "%s: expected exit 65 and one line naming %S, got %d:\n%s" cmd names
        code (String.concat "\n" lines)
  in
  (* the line opens with the CLI's name *)
  let expect_file (cli, args, names) =
    expect (bin (cli ^ ".exe") ^ " " ^ args) ~prefix:(cli ^ ": ") ~names
  in
  with_file "not a durable file of any kind, but long enough to hold a header\n"
    (fun foreign ->
      let trace = Filename.temp_file "parity" ".trace" in
      Fun.protect ~finally:(fun () -> Sys.remove trace) (fun () ->
          let buf = Trace.Sink.Buffer_sink.create () in
          let sink = Trace.Sink.buffer buf in
          for i = 0 to 2999 do
            Trace.Sink.emit sink
              { Trace.Ref_record.pe = i mod 2; addr = 64 + i; area = Trace.Area.Heap;
                op = Trace.Ref_record.Read }
          done;
          Trace.Tracefile.write trace buf;
          let full = In_channel.with_open_bin trace In_channel.input_all in
          Out_channel.with_open_bin trace (fun oc ->
              output_string oc (String.sub full 0 (String.length full * 60 / 100)));
          let sweep = "--quick --bench deriv --pes 2 --sizes 64 --protocol write-through" in
          List.iter expect_file
            [
              ("tracecheck", "--trace-file " ^ foreign, "not a RAP-WAM trace");
              ("tracecheck", "--trace-file " ^ Filename.quote trace, "trace error at byte");
              ( "cache_sweep",
                Printf.sprintf "%s --trace-file %s" sweep
                  (Filename.quote (Filename.get_temp_dir_name ())),
                "Is a directory" );
              ( "cache_sweep",
                Printf.sprintf "%s --journal %s --resume" sweep foreign,
                "not a RAP-WAM journal" );
              ("serve", "--quick --restore " ^ foreign, "not a RAP-WAM memo snapshot");
              ("serve", "--quick --restore /nonexistent/memo.snap", "/nonexistent/memo.snap");
            ]));
  with_file "p(X) :- q(X, Y.\n" (fun bad ->
      List.iter
        (fun cmd -> expect cmd ~names:"syntax error")
        [
          Printf.sprintf "%s --query 'p(X)' %s" rapwam_run_exe bad;
          Printf.sprintf "%s --src %s --query 'p(X)'" (bin "trace_dump.exe") bad;
          Printf.sprintf "%s %s" (bin "wamlint.exe") bad;
          Printf.sprintf "%s %s" (bin "annotate.exe") bad;
          Printf.sprintf "%s %s" (bin "costan.exe") bad;
        ]);
  (* lexical errors in the program or the query are syntax errors too *)
  List.iter
    (fun (text, query) ->
      with_file text (fun f ->
          expect ~names:"syntax error"
            (Printf.sprintf "%s --query %s %s" rapwam_run_exe (Filename.quote query) f)))
    [
      ({|p(X) :- X = "a".|} ^ "\n", "p(X)");
      ("p(X) :- X = 99999999999999999999.\n", "p(X)");
      ("p(a).\n", "p('a)");
    ];
  with_file "grow(L) :- grow([a|L]).\n" (fun grow ->
      expect ~names:"heap overflow"
        (Printf.sprintf "%s --sequential --query 'grow([])' %s" rapwam_run_exe grow));
  (* a term walk over a cyclic term (bound without occurs check), an
     integer literal outside the cell range and an arithmetic result
     outside it end in a typed error on both engines: never a hang,
     never a wrapped value.  [timeout] ends a hung run (the deadline
     cannot interrupt the read of its output). *)
  List.iter
    (fun (text, query, names) ->
      with_file text (fun f ->
          List.iter
            (fun engine ->
              Deadline.within ~seconds:10.0 (fun () ->
                  expect ~names
                    (Printf.sprintf "timeout 10 %s %s --query %s %s" rapwam_run_exe
                       engine (Filename.quote query) f)))
            [ "--sequential"; "--pes 4" ]))
    [
      ("q :- X = f(X), Y = f(Y), X = Y.\n", "q", "unify: cyclic term");
      ("q :- X = f(X), Y = f(Y), X \\= Y.\n", "q", "unify: cyclic term");
      ("q :- X = f(X), Y = f(Y), X == Y.\n", "q", "compare: cyclic term");
      ("q :- X = f(X), Y = f(Y), X @< Y.\n", "q", "compare: cyclic term");
      ("q :- X = f(X), ground(X).\n", "q", "ground/1: cyclic term");
      ("q :- X = f(X), indep(X, Z).\n", "q", "indep/2: cyclic term");
      ("p(X) :- X = 576460752303423488.\n", "p(X)", "integer 576460752303423488");
      ("q(X) :- X is 576460752303423487 + 1.\n", "q(X)", "integer overflow");
      ("q(X) :- X is 1099511627776 * 1099511627776.\n", "q(X)", "integer overflow");
      ("q(X) :- X is 1 << 62.\n", "q(X)", "integer overflow");
      ("q(X) :- X is abs(-576460752303423488).\n", "q(X)", "integer overflow");
      ("q(X) :- X is 300000000000000000 * 2, X > 0.\n", "q(X)", "integer overflow");
    ]

(* --pes outside what the machine runs is a usage error naming the
   range, before anything runs: cmdliner's 124, or the hand-rolled
   repl's 2. *)
let test_pes_out_of_range () =
  with_file "p.\n" (fun prog ->
      List.iter
        (fun pes ->
          List.iter
            (fun (cmd, usage) ->
              let cmd = Printf.sprintf "%s --pes %s" cmd pes in
              let code, lines = run_stderr cmd in
              let naming = List.filter (fun l -> contains l "1..128") lines in
              if code <> usage || List.length naming <> 1 then
                Alcotest.failf "%s: expected exit %d and one line naming 1..128, got %d:\n%s"
                  cmd usage code (String.concat "\n" lines))
            [
              (Printf.sprintf "%s --query p %s" rapwam_run_exe prog, 124);
              (Printf.sprintf "%s --bench qsort --quick" (bin "trace_dump.exe"), 124);
              (Printf.sprintf "%s --run p %s" (bin "annotate.exe") prog, 124);
              (Printf.sprintf "%s --quick" serve_exe, 124);
              (Printf.sprintf "%s --analysis refmap --quick" certify_exe, 124);
              (Printf.sprintf "%s </dev/null" repl_exe, 2);
            ])
        [ "0"; "129" ])

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

(* JSON artifacts stay strictly parseable whatever bytes a name holds.
   A UTF-8 predicate name or label reads back unchanged; a lone 0xE9
   byte (a Latin-1 source) reads back as U+00E9. *)
let profiled_names atom =
  let src = Filename.temp_file "parity_names" ".pl" in
  let json = Filename.temp_file "parity_names" ".json" in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ src; json ])
  @@ fun () ->
  Out_channel.with_open_bin src (fun oc ->
      Printf.fprintf oc "%s(1).\nmain(X) :- %s(X).\n" atom atom);
  ignore
    (run_capture
       (Printf.sprintf "%s --pes 4 --profile --json %s --query 'main(X)' %s"
          rapwam_run_exe (Filename.quote json) (Filename.quote src)));
  match Json_reader.(member "profile" (of_file json)) with
  | Obs.Json.List rows -> List.map (Json_reader.member "predicate") rows
  | _ -> Alcotest.fail "profile is not an array"

let test_json_names () =
  let cafe = Obs.Json.String "caf\xc3\xa9/1" in
  Alcotest.(check bool) "UTF-8 predicate name reads back" true
    (List.mem cafe (profiled_names "'caf\xc3\xa9'"));
  Alcotest.(check bool) "lone 0xE9 byte reads back as U+00E9" true
    (List.mem cafe (profiled_names "'caf\xe9'"));
  let label = "/tmp/caf\xc3\xa9.trace" in
  let summary =
    Tracecheck.check_buffer (Benchlib.Runner.run_wam (small "deriv")).trace
  in
  let printed = Obs.Json.to_string (Tracecheck.json_of_summary ~label summary) in
  Alcotest.(check bool) "tracecheck label reads back" true
    (Json_reader.(member "label" (of_string printed)) = Obs.Json.String label)

(* Every built CLI prints its help page and exits 0; cmdliner reports
   a malformed doc string as "cmdliner error" above the page. *)
let clis =
  [ "rapwam_run"; "trace_dump"; "cache_sweep"; "annotate"; "repl"; "wamlint"; "serve";
    "certify"; "tracecheck"; "costan" ]

let test_help_pages () =
  List.iter
    (fun name ->
      let page = run_capture (Filename.quote (bin (name ^ ".exe")) ^ " --help=plain 2>&1") in
      if contains page "cmdliner error" then Alcotest.failf "%s --help:\n%s" name page;
      if List.mem name [ "serve"; "cache_sweep" ] && not (contains page "SITE:KIND@N") then
        Alcotest.failf "%s --help does not show the fault syntax SITE:KIND@N" name)
    clis

(* A bad --mix or a negative --retries is a usage error too, rejected
   by its converter before anything is served. *)
let test_serve_bad_flags_are_usage_errors () =
  List.iter
    (fun flag ->
      let cmd = Printf.sprintf "%s --quick --requests 10 %s" serve_exe flag in
      let code, lines = run_stderr cmd in
      if code <> 124 then
        Alcotest.failf "%s: expected exit 124, got %d:\n%s" cmd code
          (String.concat "\n" lines))
    [ "--mix nosuch:3"; "--mix deriv:0"; "--retries=-1" ]

let suite =
  [
    Alcotest.test_case "every CLI prints its help page" `Quick test_help_pages;
    Alcotest.test_case "repl/rapwam_run agree on deriv" `Quick
      test_parity_deriv;
    Alcotest.test_case "repl/rapwam_run agree on qsort" `Quick
      test_parity_qsort;
    Alcotest.test_case "serve rejects duplicate --faults entries" `Quick
      test_serve_rejects_duplicate_faults;
    Alcotest.test_case "certify exit-status contract" `Quick
      test_certify_exit_status;
    Alcotest.test_case "typed program errors exit 65 in one line" `Quick
      test_typed_errors_exit_65;
    Alcotest.test_case "--pes outside 1..128 is a usage error" `Quick
      test_pes_out_of_range;
    Alcotest.test_case "non-ASCII names give strict JSON" `Quick
      test_json_names;
    Alcotest.test_case "serve: bad --mix and --retries exit 124" `Quick
      test_serve_bad_flags_are_usage_errors;
  ]
