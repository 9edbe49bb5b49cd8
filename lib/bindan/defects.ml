(* Seeded binding-analysis defects.

   Each defect weakens exactly one rule of the binding analysis or its
   plan bridge; the driver runs the full pipeline with the weakened
   plan and the named detector must flag it:

   - "oracle": replaying the baseline trace against the certified
               sites finds a bound-arg / free-arg / stale-bind /
               uninit-read violation;
   - "lint":   wamlint's nt-builtin rule rejects the emitted code.

   (Several oracle defects also corrupt the answer set; the driver
   reports both, the oracle is the primary detector.)

   [probes] lists extra fixture programs (beyond the paper's
   benchmarks) shaped to trip the specific weakened rule. *)

type t = {
  name : string;
  detector : string;  (** "oracle" | "lint" *)
  description : string;
  probes : Benchlib.Programs.benchmark list;
}

let all =
  [
    {
      name = "force_uninit";
      detector = "oracle";
      description =
        "certify every shape-compatible argument as uninitialized \
         output, ignoring freeness, written-first flow and dispatch \
         determinacy; qsort's bound list arguments then hit uncond gets \
         whose baseline windows never write the cell";
      probes = [];
    };
    {
      name = "cond_blind";
      detector = "oracle";
      description =
        "treat every call site as clean and every dispatch as det: a \
         cell bound after a nondeterministic generator counts as \
         unconditional, its untrailed binding goes stale on retry";
      probes = [ Fixtures.gen ];
    };
    {
      name = "rigid_any";
      detector = "oracle";
      description =
        "certify rigid first arguments without the groundness proof; \
         an indexed predicate called with a free argument binds inside \
         a window the _r form assumes read-only";
      probes = [ Fixtures.mk ];
    };
    {
      name = "nt_alias";
      detector = "oracle";
      description =
        "any variable side of =/2 counts as definitely free; a \
         conditional bind goes untrailed and the retry re-reads the \
         stale cell";
      probes = [ Fixtures.alt ];
    };
    {
      name = "uninit_escape";
      detector = "oracle";
      description =
        "compile every first-occurrence variable put as uncond put_variable \
         regardless of the callee certificate; a consumer that reads \
         before writing sees the never-initialized cell";
      probes = [ Fixtures.esc ];
    };
    {
      name = "nt_wrong_builtin";
      detector = "lint";
      description =
        "extend the no-trail certificate to =</2; wamlint's nt-builtin \
         rule rejects the emitted uncond builtin";
      probes = [];
    };
  ]

let names = List.map (fun d -> d.name) all
let find name = List.find_opt (fun d -> d.name = name) all

(* Analysis weakening + plan flags for a defect. *)
let weakening ?defect () =
  match defect with
  | None -> Absint.sound
  | Some d -> (
    match d.name with
    | "force_uninit" -> { Absint.sound with wk_force_uninit = true }
    | "cond_blind" -> { Absint.sound with wk_cond_blind = true }
    | "rigid_any" -> { Absint.sound with wk_rigid_any = true }
    | "nt_alias" -> { Absint.sound with wk_nt_alias = true }
    | "uninit_escape" | "nt_wrong_builtin" -> Absint.sound
    | other -> invalid_arg ("Bindan.Defects.weakening: unknown defect " ^ other))

let plan_flags ?defect () =
  match defect with
  | Some d when d.name = "uninit_escape" -> (true, false)
  | Some d when d.name = "nt_wrong_builtin" -> (false, true)
  | _ -> (false, false)
