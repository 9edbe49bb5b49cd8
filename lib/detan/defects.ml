(* Seeded analysis defects.

   Each defect weakens exactly one rule of the determinacy analysis or
   its compiler bridge; the driver runs the full pipeline with the
   weakened plan and the named detector must flag it:

   - "oracle":  replaying the baseline trace finds a backtrack that
                commits inside an alternative det-mode would have
                elided;
   - "answers": the det-mode answer set differs from the baseline's;
   - "lint":    the wamlint orphan-chain rule rejects the emitted
                det code.

   [probes] lists extra fixture programs (beyond the paper's
   benchmarks) shaped to trip the specific weakened rule. *)

type t = {
  name : string;
  detector : string;  (** "oracle" | "answers" | "lint" *)
  description : string;
  probes : Benchlib.Programs.benchmark list;
}

let all =
  [
    {
      name = "force_certify";
      detector = "oracle";
      description =
        "certify every multi-clause chain unconditionally; the \
         failure-driven once_d/2 loop in deriv backtracks into its \
         elided second clause";
      probes = [];
    };
    {
      name = "guard_operands";
      detector = "oracle";
      description =
        "arithmetic-guard exclusion compares operators only, ignoring \
         operand paths: X<Y and Z>=X count as complementary";
      probes = [ Fixtures.guards ];
    };
    {
      name = "cut_after_call";
      detector = "oracle";
      description =
        "cut rule accepts a cut anywhere in the body, even after a \
         user call that commits the shallow frame first";
      probes = [ Fixtures.gen_cut ];
    };
    {
      name = "var_head_blind";
      detector = "answers";
      description =
        "declare every switch_on_term variable chain dead regardless \
         of the call pattern; calls with an unbound first argument \
         fail instead of enumerating";
      probes = [ Fixtures.pick ];
    };
    {
      name = "orphan_chain";
      detector = "lint";
      description =
        "emit certified chains headed by a shallow retry instead of \
         a try; wamlint's orphan-chain rule rejects the code";
      probes = [];
    };
  ]

let names = List.map (fun d -> d.name) all
let find name = List.find_opt (fun d -> d.name = name) all

(* The weakened plan for a defect (or the sound plan for [None]). *)
let plan ?defect ?patterns () =
  match defect with
  | None -> Exclusion.plan ?patterns ()
  | Some d -> (
    match d.name with
    | "force_certify" -> Exclusion.plan ~force_certify:true ?patterns ()
    | "guard_operands" -> Exclusion.plan ~sloppy_guards:true ?patterns ()
    | "cut_after_call" -> Exclusion.plan ~any_cut:true ?patterns ()
    | "var_head_blind" -> Exclusion.plan ~blind_var:true ?patterns ()
    | "orphan_chain" -> Exclusion.plan ~orphan:true ?patterns ()
    | other -> invalid_arg ("Detan.Defects.plan: unknown defect " ^ other))
