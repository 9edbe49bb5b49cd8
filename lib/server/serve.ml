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

(* A query that did not parse ends here, past the fault site, as one
   whose run raised: with the same message, at the same point. *)
let execute ?faults t (query : (Prolog.Term.t, string) result) =
  try
    (match faults with
    | Some plan -> Resilience.Fault.hit ~plan "sim-step"
    | None -> ());
    match query with
    | Ok query -> Ok (run_answers t query)
    | Error msg -> Error (`Run, msg)
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

(* ------------------------------------------------------------------ *)
(* Admission: a request's text is parsed here and nowhere else. *)

type admitted = {
  rq : request;
  query : (Prolog.Term.t, string) result;
  key : Memo.Canon.key option;
}

let parse text =
  match Prolog.Parser.term_of_string text with
  | term -> Ok term
  | exception (Prolog.Parser.Error _ as e) ->
    Error (Option.get (Wam.Program.error_message e))

let admit (rq : request) =
  let query = parse rq.rq_query in
  { rq; query; key = Result.to_option (Result.map Memo.Canon.key_of_term query) }

let run_direct t text =
  match execute t (parse text) with
  | Ok (answers, _) -> Ok answers
  | Error (_, msg) -> Error msg

(* ------------------------------------------------------------------ *)
(* The lane primitives {!Supervise.serve} admits requests through. *)

let now () = Unix.gettimeofday ()

(* A memo hit as a finished response; [None] when the table has no
   answer (or memoing is off) and the query must actually run. *)
let lookup_hit t ~t0 { rq; key; _ } : response option =
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
let rec compute ?(recheck = false) t ~t0 (a : admitted) : response =
  match if recheck then lookup_hit t ~t0 a else None with
  | Some rs -> rs
  | None -> compute_miss t ~t0 a

and compute_miss t ~t0 { rq; query; key } : response =
  let start = now () in
  match execute ?faults:t.cfg.faults t query with
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

let query_verdict t = function
  | Ok goal -> Costan.Analyze.verdict t.an ~threshold:t.cfg.threshold goal
  | Error _ -> Costan.Analyze.Keep

let verdict_of t (a : admitted) = query_verdict t a.query
let verdict t goal_text = query_verdict t (parse goal_text)
