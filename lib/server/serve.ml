(* One compiled database and the per-request pieces of the query
   server: memo lookup, cost verdict, execution. *)

type config = {
  src : string;
  pes : int;
  workers : int;
  memo : Memo.Table.t option;
  threshold : int;
  max_queue : int;
  faults : Resilience.Fault.plan option;
}

let config ?(pes = 1) ?(workers = Engine.Pool.default_jobs ())
    ?memo ?(threshold = 150) ?(max_queue = 256) ?faults ~src () =
  if pes < 1 then invalid_arg "Serve.config: pes must be >= 1";
  if workers < 1 then invalid_arg "Serve.config: workers must be >= 1";
  if threshold < 1 then invalid_arg "Serve.config: threshold must be >= 1";
  if max_queue < 1 then invalid_arg "Serve.config: max_queue must be >= 1";
  { src; pes; workers; memo; threshold; max_queue; faults }

type t = {
  cfg : config;
  an : Costan.Analyze.t;
  image : Wam.Program.image;  (* compiled once; shared by every domain *)
}

let create cfg =
  let db = Prolog.Database.of_string cfg.src in
  {
    cfg;
    an = Costan.Analyze.analyze db;
    image = Wam.Program.image ~parallel:(cfg.pes > 1) db;
  }

let config_of t = t.cfg

type request = { rq_id : int; rq_query : string }
type lane = Hit | Inline | Pooled

type response = {
  rs_id : int;
  rs_query : string;
  rs_answers : Memo.Canon.answer list;
  rs_lane : lane;
  rs_error : string option;
  rs_fault : bool;
  rs_latency_s : float;
  rs_service_s : float;
  rs_inferences : int;
}

(* ------------------------------------------------------------------ *)
(* Execution: one query straight through the chosen engine.  The query
   is compiled onto a workspace of the server's database image and runs
   on a machine from the machine pool; both go back for the next miss
   once the answers and the inference count are read.  A run that
   raises returns neither, so nothing it touched is reused.  This is
   safe on any domain. *)

let run_answers t query =
  let prog = Wam.Program.with_query t.image ~query in
  let answers, m =
    if t.cfg.pes <= 1 then Wam.Seq.run_all ~max_solutions:1 prog
    else begin
      let result, sim = Rapwam.Sim.run ~n_workers:t.cfg.pes prog in
      match result with
      | Wam.Seq.Success bindings -> ([ bindings ], sim.Rapwam.Sim.m)
      | Wam.Seq.Failure -> ([], sim.Rapwam.Sim.m)
    end
  in
  let inferences = m.Wam.Machine.inferences in
  Wam.Machine.release m;
  Wam.Program.release prog;
  (answers, inferences)

let execute ?faults t query =
  try
    (match faults with
    | Some plan -> Resilience.Fault.hit ~plan "sim-step"
    | None -> ());
    Ok (run_answers t query)
  with
  | Resilience.Fault.Injected { kind = Resilience.Fault.Crash; _ } as e ->
    raise e
  | Resilience.Fault.Injected { site; kind; occurrence } ->
    Error
      (`Fault,
       Printf.sprintf "injected %s at %s#%d"
         (Resilience.Fault.kind_name kind) site occurrence)
  | e -> (
    match Wam.Program.error_message e with
    | Some msg -> Error (`Run, msg)
    | None -> raise e)

let run_direct t query =
  match execute t query with
  | Ok (answers, _) -> Ok answers
  | Error (_, msg) -> Error msg

(* ------------------------------------------------------------------ *)
(* The lane primitives {!Supervise.serve} admits requests through. *)

let now () = Unix.gettimeofday ()

(* A memo hit as a finished response; [None] when the table has no
   answer (or memoing is off) and the query must actually run. *)
let lookup_hit t ~t0 ~key (rq : request) : response option =
  match (t.cfg.memo, key) with
  | Some memo, Some k -> (
    match Memo.Table.find memo k with
    | Some answers ->
      let fin = now () in
      Some
        {
          rs_id = rq.rq_id;
          rs_query = rq.rq_query;
          rs_answers = answers;
          rs_lane = Hit;
          rs_error = None;
          rs_fault = false;
          rs_latency_s = fin -. t0;
          rs_service_s = 0.0;
          rs_inferences = 0;
        }
    | None -> None)
  | _ -> None

(* Compute a miss on whatever domain this runs on, publish the answer
   set, and time the work.  [recheck] is the pooled lane's
   double-checked lookup: by the time a queued request reaches a
   worker, an earlier request for the same key may have published —
   consulting the table again turns the duplicate into a hit instead
   of a redundant run. *)
let rec compute ?(recheck = false) t ~t0 ~key (rq : request) : response =
  match if recheck then lookup_hit t ~t0 ~key rq else None with
  | Some rs -> rs
  | None -> compute_miss t ~t0 ~key rq

and compute_miss t ~t0 ~key (rq : request) : response =
  let start = now () in
  match execute ?faults:t.cfg.faults t rq.rq_query with
  | Ok (answers, inferences) ->
    (match (t.cfg.memo, key) with
    | Some memo, Some key -> ignore (Memo.Table.insert memo key answers)
    | _ -> ());
    let fin = now () in
    {
      rs_id = rq.rq_id;
      rs_query = rq.rq_query;
      rs_answers = answers;
      rs_lane = Inline;
      rs_error = None;
      rs_fault = false;
      rs_latency_s = fin -. t0;
      rs_service_s = fin -. start;
      rs_inferences = inferences;
    }
  | Error (cls, msg) ->
    let fin = now () in
    {
      rs_id = rq.rq_id;
      rs_query = rq.rq_query;
      rs_answers = [];
      rs_lane = Inline;
      rs_error = Some msg;
      rs_fault = (cls = `Fault);
      rs_latency_s = fin -. t0;
      rs_service_s = fin -. start;
      rs_inferences = 0;
    }

let verdict t goal_text =
  match Prolog.Parser.term_of_string goal_text with
  | exception Prolog.Parser.Error _ -> Costan.Analyze.Keep
  | goal -> Costan.Analyze.verdict t.an ~threshold:t.cfg.threshold goal
