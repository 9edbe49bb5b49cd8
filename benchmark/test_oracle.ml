(* The oracle must count a corrupted answer and a refused request as
   failures, and a right answer as a success. *)

let list xs = Prolog.Term.list_of (List.map (fun x -> Prolog.Term.Int x) xs)

let response ?(outcome = Server.Supervise.Ok) query answers =
  {
    Server.Supervise.sv =
      {
        Server.Serve.rs_id = 0;
        rs_query = query;
        rs_answers = answers;
        rs_lane = Server.Serve.Hit;
        rs_error = None;
        rs_fault = false;
        rs_latency_s = 0.;
        rs_service_s = 0.;
        rs_inferences = 0;
      };
    sv_outcome = outcome;
    sv_attempts = 0;
  }

let fail msg =
  prerr_endline ("test_oracle: " ^ msg);
  exit 1

let () =
  let q = "qsort([3, 1, 2, 1], S)" in
  let right = [ [ ("S", list [ 1; 1; 2; 3 ]) ] ] in
  let corrupted = [ [ ("S", list [ 1; 2; 1; 3 ]) ] ] in
  let t = Oracle.tally () in
  let seen = Oracle.cache () in
  Oracle.check_response t seen (response q right);
  Oracle.check_response t seen (response q corrupted);
  Oracle.check_response t seen (response ~outcome:Server.Supervise.Shed q right);
  if t.Oracle.attempted <> 3 || t.Oracle.failed <> 2 then
    fail (Printf.sprintf "attempted %d failed %d, want 3 and 2" t.Oracle.attempted t.Oracle.failed);
  let expect_ok q answers what =
    if not (Oracle.check_answers q answers) then fail (what ^ ": right answer rejected")
  in
  expect_ok "tak(6, 3, 2, A)" [ [ ("A", Prolog.Term.Int 3) ] ] "tak";
  expect_ok "matrix([[1, 2], [3, 4]], [[5, 6], [7, 8]], C)"
    [ [ ("C", Prolog.Term.list_of [ list [ 19; 22 ]; list [ 43; 50 ] ]) ] ]
    "matrix";
  expect_ok "dbench((x * 3), 1)" [ [] ] "deriv";
  if Oracle.check_answers "dbench((x * 3), 1)" [] then fail "deriv: failure accepted";
  if Oracle.check_answers "tak(6, 3, 2, A)" [ [ ("A", Prolog.Term.Int 0) ] ] then
    fail "tak: wrong value accepted";
  print_endline "test_oracle: ok"
