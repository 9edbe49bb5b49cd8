(* Seeded analysis defects.

   Each defect damages the analysis in one way a buggy implementation
   could get wrong: four weaken the static summaries (an access class
   the footprint tables forgot), one corrupts the certification
   decision itself.  The soundness oracle must flag the weakened
   summaries with predicate/area/mode diagnostics; the certification
   audit must flag the corrupted certifier.  The summary defects show
   on qsort; force-certify needs a benchmark with an uncertified group,
   which is matrix. *)

let quick name =
  List.find
    (fun (b : Benchlib.Programs.benchmark) -> b.Benchlib.Programs.name = name)
    (Benchlib.Inputs.small_benchmarks ())

let all : Certification.defect list =
  let oracle name description =
    {
      Certification.name;
      detector = Oracle;
      description;
      probes = [ quick "qsort" ];
    }
  in
  [
    oracle "trail-blind"
      "summaries forget the trail: binding writes no longer record their \
       undo entries";
    oracle "heap-read-only"
      "heap modes capped at read: structure building and bindings \
       invisible to the analysis";
    oracle "env-blind"
      "environment areas erased: permanent variables and frame control \
       words unaccounted";
    oracle "choice-blind"
      "choice-point area erased: clause selection and failure restore \
       unaccounted";
    {
      name = "force-certify";
      detector = Audit;
      description =
        "certifier answers yes unconditionally, marking conditional groups \
         static_safe";
      probes = [ quick "matrix" ];
    };
  ]

let forces_certify (d : Certification.defect) = d.name = "force-certify"

let erase s area = Summary.set s area Mode.Nil

let cap_at s area m =
  if not (Mode.leq (Summary.get s area) m) then Summary.set s area m

let weaken_summary (d : Certification.defect) s =
  match d.name with
  | "trail-blind" -> erase s Trace.Area.Trail
  | "heap-read-only" -> cap_at s Trace.Area.Heap Mode.Read
  | "env-blind" ->
    erase s Trace.Area.Env_pvar;
    erase s Trace.Area.Env_control
  | "choice-blind" -> erase s Trace.Area.Choice_point
  | "force-certify" -> ()
  | other -> invalid_arg (Printf.sprintf "Refmap.Defects.apply: %s" other)

(* Damage [static] in place (summaries are mode vectors; the table
   structure is untouched). *)
let apply d (static : Static.t) =
  let f = weaken_summary d in
  Hashtbl.iter
    (fun _ (p : Static.pred) ->
      f p.Static.own;
      f p.Static.closure)
    static.Static.preds;
  f static.Static.program
