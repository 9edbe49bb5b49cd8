(* Packed-trace pins: the emulator's reference stream, byte for byte,
   for the four paper benchmarks at quick scale under the sequential
   WAM, RAP-WAM at 1/4/8 PEs, and RAP-WAM at 8 PEs with the determinacy
   plan and with the determinacy + binding plans.  A refactoring of the
   instruction set, the compiler or the execution core must leave every
   digest unchanged. *)

let quick name =
  List.find
    (fun (b : Benchlib.Programs.benchmark) -> b.Benchlib.Programs.name = name)
    (Benchlib.Inputs.small_benchmarks ())

(* MD5 of the packed words (sync events included), 8 bytes each. *)
let digest (buf : Trace.Sink.Buffer_sink.t) =
  let b = Buffer.create (8 * Trace.Sink.Buffer_sink.length buf) in
  Trace.Sink.Buffer_sink.iter_packed (fun w -> Buffer.add_int64_le b (Int64.of_int w)) buf;
  Digest.to_hex (Digest.string (Buffer.contents b))

module Bind = Certification.Make (Bindan.Instance)

let runs name =
  let b = quick name in
  let r = Bind.analyze b in
  let transform = r.front.transform in
  let plans = (Option.get r.variant_build).plans in
  let rap n = Benchlib.Runner.run_rapwam ~n_pes:n b in
  [
    ("wam", fun () -> Benchlib.Runner.run_wam b);
    ("rapwam-1pe", fun () -> rap 1);
    ("rapwam-4pe", fun () -> rap 4);
    ("rapwam-8pe", fun () -> rap 8);
    ("rapwam-8pe-det", fun () -> Benchlib.Runner.run_rapwam ~transform ?det:plans.det ~n_pes:8 b);
    ( "rapwam-8pe-det-bind",
      fun () ->
        Benchlib.Runner.run_rapwam ~transform ?det:plans.det ?bind:plans.bind ~n_pes:8 b );
  ]

let expected =
  [
    ("deriv/wam", "5d781361f48fffe7a2d4fd5fe547cf57");
    ("deriv/rapwam-1pe", "47090763f562e48723f90c4e3e31fd9e");
    ("deriv/rapwam-4pe", "fbb0aa6156ebe34c42cae33e3fc246e3");
    ("deriv/rapwam-8pe", "a879049724e0728e34b74a6da243ddef");
    ("deriv/rapwam-8pe-det", "14db57bb69fd2a3ee62e4a6c0496dd7c");
    ("deriv/rapwam-8pe-det-bind", "ea813e94c578e7670d96f170f577f099");
    ("qsort/wam", "ddc44cafe93fb039b4bf21d36eb930a8");
    ("qsort/rapwam-1pe", "b7259694f57482ca00face113e007de7");
    ("qsort/rapwam-4pe", "d60b58dd692423521a60280daa519509");
    ("qsort/rapwam-8pe", "eb8d72fabf9631093e48f4a3003616dd");
    ("qsort/rapwam-8pe-det", "3b68490a1e225154e6781a8cab433d87");
    ("qsort/rapwam-8pe-det-bind", "fa9734410300da909760278a535e182d");
    ("tak/wam", "98cc3e779e666452b3779e937e51d8e7");
    ("tak/rapwam-1pe", "ddef8cf69d19f2bc0af58032c8876e72");
    ("tak/rapwam-4pe", "9d98bee2ab60fd130e8939fffdc7a647");
    ("tak/rapwam-8pe", "e17c030f71920d4136fe3ef4255abfe5");
    ("tak/rapwam-8pe-det", "907fe0b5069dd687e1640018a6eda0b4");
    ("tak/rapwam-8pe-det-bind", "769a98eeadbf2424ab540187dc923aa3");
    ("matrix/wam", "de275326bb3e631da72f080ac91df904");
    ("matrix/rapwam-1pe", "d62a10b3d534fba8af8da2bc641a0b35");
    ("matrix/rapwam-4pe", "82a3d47f85ea1957a16c4e90c959ec2b");
    ("matrix/rapwam-8pe", "f5bb010fabf74104da2bdd66c07ac2d6");
    ("matrix/rapwam-8pe-det", "8c326777a400ea15b0d447317c526e98");
    ("matrix/rapwam-8pe-det-bind", "663f42dce6c0b7ea62b6ed2ff00ac3b5");
  ]

let test_pins () =
  let got =
    List.concat_map
      (fun name ->
        List.map
          (fun (config, run) ->
            (name ^ "/" ^ config, digest (run ()).Benchlib.Runner.trace))
          (runs name))
      [ "deriv"; "qsort"; "tak"; "matrix" ]
  in
  let bad = List.filter (fun (k, d) -> List.assoc_opt k expected <> Some d) got in
  if bad <> [] then
    Alcotest.failf "trace digests moved:\n%s"
      (String.concat "\n" (List.map (fun (k, d) -> Printf.sprintf "    (%S, %S);" k d) bad))

(* The scheduler's counters, which no trace word shows: idle and wait
   cycles are untraced polls, and a round in which every PE only polls
   emits nothing.  The 20 RAP-WAM configurations above, and the plain
   build at 64 and 128 PEs, as (rounds, idle cycles, wait cycles,
   goals stolen). *)
let expected_counters =
  [
    ("deriv/rapwam-1pe", (1774, 0, 0, 0));
    ("deriv/rapwam-4pe", (721, 1038, 87, 18));
    ("deriv/rapwam-8pe", (553, 2634, 39, 30));
    ("deriv/rapwam-8pe-det", (553, 2634, 39, 30));
    ("deriv/rapwam-8pe-det-bind", (553, 2634, 39, 30));
    ("deriv/rapwam-64pe", (553, 33549, 36, 30));
    ("deriv/rapwam-128pe", (553, 68877, 36, 30));
    ("qsort/rapwam-1pe", (13206, 0, 0, 0));
    ("qsort/rapwam-4pe", (6446, 9430, 3165, 20));
    ("qsort/rapwam-8pe", (5819, 28346, 5060, 67));
    ("qsort/rapwam-8pe-det", (5819, 28346, 5060, 67));
    ("qsort/rapwam-8pe-det-bind", (5819, 28346, 5060, 67));
    ("qsort/rapwam-64pe", (5810, 353579, 5072, 80));
    ("qsort/rapwam-128pe", (5810, 725355, 5072, 80));
    ("tak/rapwam-1pe", (42454, 0, 0, 0));
    ("tak/rapwam-4pe", (12626, 1410, 6660, 23));
    ("tak/rapwam-8pe", (8049, 6349, 15645, 63));
    ("tak/rapwam-8pe-det", (8049, 6349, 15645, 63));
    ("tak/rapwam-8pe-det-bind", (8049, 6349, 15645, 63));
    ("tak/rapwam-64pe", (2198, 84513, 14176, 534));
    ("tak/rapwam-128pe", (1987, 195965, 16629, 839));
    ("matrix/rapwam-1pe", (7061, 0, 0, 0));
    ("matrix/rapwam-4pe", (4103, 3189, 6162, 3));
    ("matrix/rapwam-8pe", (2125, 9653, 285, 6));
    ("matrix/rapwam-8pe-det", (2676, 7593, 6509, 14));
    ("matrix/rapwam-8pe-det-bind", (2676, 7593, 6509, 14));
    ("matrix/rapwam-64pe", (2125, 128597, 285, 6));
    ("matrix/rapwam-128pe", (2125, 264533, 285, 6));
  ]

let test_counter_pins () =
  let got =
    List.concat_map
      (fun name ->
        let b = quick name in
        let wide n () = Benchlib.Runner.run_rapwam ~keep_trace:false ~n_pes:n b in
        List.map
          (fun (config, run) ->
            let r : Benchlib.Runner.result = run () in
            ( name ^ "/" ^ config,
              (r.rounds, r.idle_cycles, r.wait_cycles, r.goals_stolen) ))
          (List.filter (fun (config, _) -> config <> "wam") (runs name)
          @ [ ("rapwam-64pe", wide 64); ("rapwam-128pe", wide 128) ]))
      [ "deriv"; "qsort"; "tak"; "matrix" ]
  in
  let bad = List.filter (fun (k, c) -> List.assoc_opt k expected_counters <> Some c) got in
  if bad <> [] then
    Alcotest.failf "scheduler counters moved:\n%s"
      (String.concat "\n"
         (List.map
            (fun (k, (r, i, w, s)) -> Printf.sprintf "    (%S, (%d, %d, %d, %d));" k r i w s)
            bad))

(* The plain configurations again, each on a machine and a workspace
   that a different query on the same image just released: that query
   interned run-time functors and wrote other words to the same pages.
   The trace keeps its pin, and the answer and counters equal a run of
   the benchmark through [Benchlib.Runner]. *)
let test_pins_on_released () =
  let traced prog n_pes =
    let buf = Trace.Sink.Buffer_sink.create () in
    let sink = Trace.Sink.buffer buf in
    if n_pes = 0 then
      let result, m = Wam.Seq.run ~sink prog in
      (result, m, buf)
    else
      let result, sim = Rapwam.Sim.run ~sink ~n_workers:n_pes prog in
      (result, sim.Rapwam.Sim.m, buf)
  in
  let counters (m : Wam.Machine.t) =
    let sum f = Array.fold_left (fun acc w -> acc + f w) 0 m.Wam.Machine.workers in
    [
      Wam.Machine.total_instr m;
      m.Wam.Machine.inferences;
      m.Wam.Machine.parcalls;
      m.Wam.Machine.goals_stolen;
      m.Wam.Machine.cp_created;
      sum (fun w -> w.Wam.Machine.idle_cycles);
      sum (fun w -> w.Wam.Machine.wait_cycles);
      sum Wam.Machine.heap_used;
      sum Wam.Machine.trail_used;
    ]
    @ Array.to_list m.Wam.Machine.opcode_freq
  in
  List.iter
    (fun name ->
      let b = quick name in
      List.iter
        (fun (config, n_pes) ->
          let key = name ^ "/" ^ config in
          let image =
            Wam.Program.image ~parallel:(n_pes > 0) (Prolog.Database.of_string b.Benchlib.Programs.src)
          in
          let dirty =
            Wam.Program.with_query image
              ~query:
                (Prolog.Parser.term_of_string
                   ("functor(Dirty1, dirty, 7), Dirty2 =.. [dirtier, Dirty1, Dirty1], "
                   ^ b.Benchlib.Programs.query))
          in
          let _, released, _ = traced dirty n_pes in
          Wam.Machine.release released;
          Wam.Program.release dirty;
          let prog =
            Wam.Program.with_query image ~query:(Prolog.Parser.term_of_string b.Benchlib.Programs.query)
          in
          let result, m, buf = traced prog n_pes in
          Alcotest.(check bool) (key ^ ": workspace reused") true
            (prog.Wam.Program.code == dirty.Wam.Program.code);
          Alcotest.(check bool) (key ^ ": machine reused") true
            (m.Wam.Machine.mem.Wam.Memory.pages == released.Wam.Machine.mem.Wam.Memory.pages);
          Alcotest.(check (option string)) (key ^ ": trace") (List.assoc_opt key expected)
            (Some (digest buf));
          let r =
            if n_pes = 0 then Benchlib.Runner.run_wam b
            else Benchlib.Runner.run_rapwam ~n_pes b
          in
          let answer =
            match result with
            | Wam.Seq.Success bindings -> List.assoc_opt b.Benchlib.Programs.answer_var bindings
            | Wam.Seq.Failure -> None
          in
          Alcotest.(check bool) (key ^ ": answer") true
            (r.Benchlib.Runner.succeeded = (result <> Wam.Seq.Failure)
            && Option.equal Prolog.Term.equal r.Benchlib.Runner.answer answer);
          Alcotest.(check (list int)) (key ^ ": counters")
            ([
               r.Benchlib.Runner.instructions;
               r.Benchlib.Runner.inferences;
               r.Benchlib.Runner.parcalls;
               r.Benchlib.Runner.goals_stolen;
               r.Benchlib.Runner.cp_created;
               r.Benchlib.Runner.idle_cycles;
               r.Benchlib.Runner.wait_cycles;
               r.Benchlib.Runner.heap_words;
               r.Benchlib.Runner.trail_words;
             ]
            @ Array.to_list r.Benchlib.Runner.opcode_freq)
            (counters m))
        [ ("wam", 0); ("rapwam-1pe", 1); ("rapwam-4pe", 4); ("rapwam-8pe", 8) ])
    [ "deriv"; "qsort"; "tak"; "matrix" ]

(* The emit path allocates almost nothing per reference: each plain
   configuration, its program compiled beforehand, runs into a
   Buffer_sink and allocates under 1.6 minor-heap words per word it
   emits (at most 0.79 measured, deriv at 8 PEs; the WAM runs 0.19) (the machine's own setup and the answer included).  Memory
   packs each word without checking its PE, because no machine has a
   PE the word's PE field cannot hold. *)
let test_emit_allocation () =
  Alcotest.(check bool) "max_workers <= Ref_record.max_pe" true
    (Wam.Machine.max_workers <= Trace.Ref_record.max_pe);
  List.iter
    (fun name ->
      let b = quick name in
      let seq = Benchlib.Runner.prepare ~parallel:false b in
      let par = Benchlib.Runner.prepare ~parallel:true b in
      let rap n sink = ignore (Rapwam.Sim.run ~sink ~n_workers:n par) in
      List.iter
        (fun (config, run) ->
          let buf = Trace.Sink.Buffer_sink.create ~capacity:(1 lsl 16) () in
          let sink = Trace.Sink.buffer buf in
          let before = Gc.minor_words () in
          run sink;
          let words = Gc.minor_words () -. before in
          let per_word =
            words /. float_of_int (Trace.Sink.Buffer_sink.length buf)
          in
          if not (per_word < 1.6) then
            Alcotest.failf "%s/%s: %.2f minor words per emitted word" name
              config per_word)
        [
          ("wam", fun sink -> ignore (Wam.Seq.run ~sink seq));
          ("rapwam-1pe", rap 1);
          ("rapwam-4pe", rap 4);
          ("rapwam-8pe", rap 8);
        ])
    [ "deriv"; "qsort"; "tak"; "matrix" ]

let suite =
  [
    Alcotest.test_case "packed traces match the pinned digests" `Quick test_pins;
    Alcotest.test_case "the pins hold on released machines and workspaces" `Quick
      test_pins_on_released;
    Alcotest.test_case "the emit path allocates under 2 words per word" `Quick
      test_emit_allocation;
    Alcotest.test_case "the scheduler's counters match the pins" `Quick
      test_counter_pins;
  ]
