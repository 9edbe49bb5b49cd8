(* Seeded analysis defects.

   Each defect weakens exactly one rule of the determinacy analysis or
   its compiler bridge; the certification harness runs the full
   pipeline with the weakened plan and the named detector must flag
   it:

   - [Oracle]:  replaying the baseline trace finds a backtrack that
                commits inside an alternative det-mode would have
                elided;
   - [Answers]: the det-mode answer set differs from the baseline's;
   - [Lint]:    the wamlint orphan-chain rule rejects the emitted
                det code.

   [probes] names the programs each defect trips on: a fixture shaped
   for the weakened rule, or deriv where the benchmark suffices. *)

let quick name =
  List.find
    (fun (b : Benchlib.Programs.benchmark) -> b.Benchlib.Programs.name = name)
    (Benchlib.Inputs.small_benchmarks ())

let all : Certification.defect list =
  [
    {
      name = "force_certify";
      detector = Oracle;
      description =
        "certify every multi-clause chain unconditionally; the \
         failure-driven once_d/2 loop in deriv backtracks into its \
         elided second clause";
      probes = [ quick "deriv" ];
    };
    {
      name = "guard_operands";
      detector = Oracle;
      description =
        "arithmetic-guard exclusion compares operators only, ignoring \
         operand paths: X<Y and Z>=X count as complementary";
      probes = [ Fixtures.guards ];
    };
    {
      name = "cut_after_call";
      detector = Oracle;
      description =
        "cut rule accepts a cut anywhere in the body, even after a \
         user call that commits the shallow frame first";
      probes = [ Fixtures.gen_cut ];
    };
    {
      name = "var_head_blind";
      detector = Answers;
      description =
        "declare every switch_on_term variable chain dead regardless \
         of the call pattern; calls with an unbound first argument \
         fail instead of enumerating";
      probes = [ Fixtures.pick ];
    };
    {
      name = "orphan_chain";
      detector = Lint;
      description =
        "emit certified chains headed by a shallow retry instead of \
         a try; wamlint's orphan-chain rule rejects the code";
      probes = [ quick "deriv" ];
    };
  ]

(* The weakened plan for a defect (or the sound plan for [None]). *)
let plan ?defect ?patterns () =
  match defect with
  | None -> Exclusion.plan ?patterns ()
  | Some (d : Certification.defect) -> (
    match d.name with
    | "force_certify" -> Exclusion.plan ~force_certify:true ?patterns ()
    | "guard_operands" -> Exclusion.plan ~sloppy_guards:true ?patterns ()
    | "cut_after_call" -> Exclusion.plan ~any_cut:true ?patterns ()
    | "var_head_blind" -> Exclusion.plan ~blind_var:true ?patterns ()
    | "orphan_chain" -> Exclusion.plan ~orphan:true ?patterns ()
    | other -> invalid_arg ("Detan.Defects.plan: unknown defect " ^ other))
