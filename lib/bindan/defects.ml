(* Seeded binding-analysis defects.

   Each defect weakens exactly one rule of the binding analysis or its
   plan bridge; the certification harness runs the full pipeline with
   the weakened plan and the named detector must flag it:

   - [Oracle]: replaying the baseline trace against the certified
               sites finds a bound-arg / free-arg / stale-bind /
               uninit-read violation;
   - [Lint]:   wamlint's nt-builtin rule rejects the emitted code.

   (Several oracle defects also corrupt the answer set; the harness
   reports both, the oracle is the primary detector.)

   [probes] names the programs each defect trips on: a fixture shaped
   for the weakened rule, or the benchmark that exercises it. *)

let quick name =
  List.find
    (fun (b : Benchlib.Programs.benchmark) -> b.Benchlib.Programs.name = name)
    (Benchlib.Inputs.small_benchmarks ())

let all : Certification.defect list =
  [
    {
      name = "force_uninit";
      detector = Oracle;
      description =
        "certify every shape-compatible argument as uninitialized \
         output, ignoring freeness, written-first flow and dispatch \
         determinacy; qsort's bound list arguments then hit uncond gets \
         whose baseline windows never write the cell";
      probes = [ quick "qsort" ];
    };
    {
      name = "cond_blind";
      detector = Oracle;
      description =
        "treat every call site as clean and every dispatch as det: a \
         cell bound after a nondeterministic generator counts as \
         unconditional, its untrailed binding goes stale on retry";
      probes = [ Fixtures.gen ];
    };
    {
      name = "rigid_any";
      detector = Oracle;
      description =
        "certify rigid first arguments without the groundness proof; \
         an indexed predicate called with a free argument binds inside \
         a window the _r form assumes read-only";
      probes = [ Fixtures.mk ];
    };
    {
      name = "nt_alias";
      detector = Oracle;
      description =
        "any variable side of =/2 counts as definitely free; a \
         conditional bind goes untrailed and the retry re-reads the \
         stale cell";
      probes = [ Fixtures.alt ];
    };
    {
      name = "uninit_escape";
      detector = Oracle;
      description =
        "compile every first-occurrence variable put as uncond put_variable \
         regardless of the callee certificate; a consumer that reads \
         before writing sees the never-initialized cell";
      probes = [ quick "qsort" ];
    };
    {
      name = "nt_wrong_builtin";
      detector = Lint;
      description =
        "extend the no-trail certificate to =</2; wamlint's nt-builtin \
         rule rejects the emitted uncond builtin";
      probes = [ quick "tak" ];
    };
  ]

(* Analysis weakening + plan flags for a defect. *)
let weakening ?defect () =
  match defect with
  | None -> Absint.sound
  | Some (d : Certification.defect) -> (
    match d.name with
    | "force_uninit" -> { Absint.sound with wk_force_uninit = true }
    | "cond_blind" -> { Absint.sound with wk_cond_blind = true }
    | "rigid_any" -> { Absint.sound with wk_rigid_any = true }
    | "nt_alias" -> { Absint.sound with wk_nt_alias = true }
    | "uninit_escape" | "nt_wrong_builtin" -> Absint.sound
    | other -> invalid_arg ("Bindan.Defects.weakening: unknown defect " ^ other))

let plan_flags ?defect () =
  match defect with
  | Some (d : Certification.defect) when d.name = "uninit_escape" -> (true, false)
  | Some d when d.name = "nt_wrong_builtin" -> (false, true)
  | _ -> (false, false)
