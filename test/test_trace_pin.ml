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

let suite = [ Alcotest.test_case "packed traces match the pinned digests" `Quick test_pins ]
