(* The certification harness over every analysis that changes the
   reference stream, one table row per analysis: each seeded defect is
   caught by its declared detector on its own probe programs, and the
   sound analysis stays silent on the quick benchmarks and on every
   fixture. *)

let analyses : (module Certification.ANALYSIS) list =
  [ (module Refmap.Instance); (module Detan.Instance); (module Bindan.Instance) ]

let cases (module A : Certification.ANALYSIS) =
  let module H = Certification.Make (A) in
  let defects_detected () =
    List.iter
      (fun (d : Certification.defect) ->
        if d.probes = [] then Alcotest.failf "%s names no probe" d.name;
        let reports = List.map (H.run ~defect:d ~pes:[ 4 ]) d.probes in
        if not (List.exists (Certification.flagged d) reports) then
          Alcotest.failf "seeded defect %s escaped its %s detector" d.name
            (Certification.detector_name d.detector))
      A.defects
  in
  let clean_runs () =
    List.iter
      (fun (b : Benchlib.Programs.benchmark) ->
        let r = H.run b in
        if not (Certification.clean r) then
          Alcotest.failf "%s flagged without a defect: %s" b.name (H.verdict r))
      (Benchlib.Inputs.small_benchmarks () @ A.fixtures)
  in
  [
    Alcotest.test_case (A.name ^ ": seeded defects detected") `Quick
      defects_detected;
    Alcotest.test_case (A.name ^ ": clean runs not flagged") `Quick clean_runs;
  ]

let suite = List.concat_map cases analyses
