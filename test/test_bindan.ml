(* lib/bindan: binding/instantiation certificates and
   specialized-compile soundness (oracle, answers, tracecheck, lint).
   Defect detection is checked for every analysis at once in
   test_certify. *)

module B = Certification.Make (Bindan.Instance)

let quick name =
  List.find
    (fun (b : Benchlib.Programs.benchmark) -> b.Benchlib.Programs.name = name)
    (Benchlib.Inputs.small_benchmarks ())

let pes = [ 1; 4; 8 ]

(* The acceptance triple: deriv, qsort and tak must run bind-certified
   with bit-identical answers, a clean oracle/tracecheck/lint, and
   strictly fewer trail references at every PE count. *)
let test_clean_and_trail_drop () =
  List.iter
    (fun name ->
      let r = B.run ~pes (quick name) in
      Alcotest.(check bool) (name ^ " oracle ok") true r.oracle_ok;
      Alcotest.(check bool) (name ^ " answers equal") true r.answers_ok;
      Alcotest.(check bool) (name ^ " tracecheck clean") true r.trace_ok;
      Alcotest.(check bool) (name ^ " lint clean") true r.lint_clean;
      Alcotest.(check bool)
        (name ^ " trail drop flag") true (Bindan.Instance.trail_drop r);
      List.iter
        (fun (run : Bindan.Instance.oracle Certification.run) ->
          let base, bind = Bindan.Instance.trail_pair run in
          if base <= bind then
            Alcotest.failf "%s @%dpe: trail %d -> %d (no drop)" name run.n_pes
              base bind;
          Alcotest.(check bool)
            (name ^ " trail elided > 0")
            true
            ((Bindan.Instance.bind run).trail_elided > 0))
        r.runs)
    [ "deriv"; "qsort"; "tak" ]

(* Deref-free gets actually fire where certified (deriv's Uncond
   heads, qsort's Rigid/Uncond heads). *)
let test_deref_skipped () =
  List.iter
    (fun name ->
      let r = B.run ~pes:[ 1 ] (quick name) in
      List.iter
        (fun (run : Bindan.Instance.oracle Certification.run) ->
          Alcotest.(check bool)
            (name ^ " deref skipped > 0")
            true
            ((Bindan.Instance.bind run).deref_skipped > 0))
        r.runs)
    [ "deriv"; "qsort" ]

(* The oracle actually audits sites on every certified benchmark. *)
let test_oracle_replays_windows () =
  let r = B.run ~pes:[ 1 ] (quick "qsort") in
  List.iter
    (fun (run : Bindan.Instance.oracle Certification.run) ->
      Alcotest.(check bool) "sites found" true (run.oracle.sites_checked > 0);
      Alcotest.(check bool) "windows replayed" true (run.oracle.windows > 0))
    r.runs

(* Certificates the analysis must derive (and refuse) on the paper's
   benchmarks. *)
let test_certificates () =
  let absr b = (B.analyze b).a.Bindan.Instance.absr in
  let r = absr (quick "deriv") in
  Alcotest.(check bool) "d/3 arg3 uninit" true (r.Bindan.Absint.uninit ("d", 3) 3);
  Alcotest.(check bool)
    "d/3 arg1 not uninit (indexed)" false
    (r.Bindan.Absint.uninit ("d", 3) 1);
  Alcotest.(check bool)
    "deriv not cp-free" false r.Bindan.Absint.global_cp_free;
  Alcotest.(check bool)
    "d is/2 no-trail" true
    (r.Bindan.Absint.nt_builtin ("d", 3) Wam.Builtin.Is);
  let r = absr (quick "qsort") in
  Alcotest.(check bool) "qsort cp-free" true r.Bindan.Absint.global_cp_free;
  Alcotest.(check bool)
    "partition/4 arg3 uninit" true
    (r.Bindan.Absint.uninit ("partition", 4) 3);
  Alcotest.(check bool)
    "partition/4 arg4 uninit" true
    (r.Bindan.Absint.uninit ("partition", 4) 4);
  Alcotest.(check bool)
    "qs/3 arg3 not uninit (repeat head var)" false
    (r.Bindan.Absint.uninit ("qs", 3) 3);
  let r = absr Bindan.Fixtures.esc in
  Alcotest.(check bool)
    "id/2 arg2 not uninit (read-before-write)" false
    (r.Bindan.Absint.uninit ("id", 2) 2)

(* Facts export: one JSON row per predicate, flat-store-ready. *)
let test_facts_json () =
  let a = (B.analyze (quick "deriv")).a in
  let facts =
    match
      Bindan.Facts.json_of_facts a.Bindan.Instance.absr.Bindan.Absint.facts
    with
    | Obs.Json.List facts -> facts
    | _ -> Alcotest.fail "the facts export is not an array"
  in
  let field k = function Obs.Json.Obj kvs -> List.assoc_opt k kvs | _ -> None in
  let uninit_arg fact =
    match field "args" fact with
    | Some (Obs.Json.List args) ->
      List.exists (fun a -> field "uninit" a = Some (Obs.Json.Bool true)) args
    | _ -> false
  in
  let is_d3 f = field "pred" f = Some (Obs.Json.String "d/3") in
  Alcotest.(check bool) "has d/3" true (List.exists is_d3 facts);
  Alcotest.(check bool) "has uninit:true" true (List.exists uninit_arg facts)

(* The bind plan only sets attributes: with the same det plan, the two
   code areas of every benchmark agree once [Instr.plain] is applied,
   and the plan does certify sites somewhere. *)
let test_plans_align () =
  let code (p : Wam.Program.t) f =
    let c = p.Wam.Program.code in
    Array.init (Wam.Code.length c) (fun i -> f (Wam.Code.fetch c i))
  in
  let certified =
    List.filter
      (fun (b : Benchlib.Programs.benchmark) ->
        let r = B.analyze b in
        let base = r.base_build.prog and bind = (Option.get r.variant_build).prog in
        if code base Wam.Instr.plain <> code bind Wam.Instr.plain then
          Alcotest.failf "%s: det and det+bind code differ beyond attributes"
            b.Benchlib.Programs.name;
        code base Fun.id <> code bind Fun.id)
      (Benchlib.Inputs.small_benchmarks () @ Benchlib.Large.population ())
  in
  Alcotest.(check bool) "some benchmark certified" true (certified <> [])

let suite =
  [
    Alcotest.test_case "det and det+bind code align" `Quick test_plans_align;
    Alcotest.test_case "deriv/qsort/tak: clean and trail drops at 1/4/8"
      `Quick test_clean_and_trail_drop;
    Alcotest.test_case "deref-free gets fire" `Quick test_deref_skipped;
    Alcotest.test_case "oracle replays certified windows" `Quick
      test_oracle_replays_windows;
    Alcotest.test_case "certificates derived and refused" `Quick
      test_certificates;
    Alcotest.test_case "facts JSON export" `Quick test_facts_json;
  ]
