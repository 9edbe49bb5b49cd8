(* The concurrent query server: memo consult + costan admission on the
   accepting thread, a domain pool for everything expensive. *)

type config = {
  src : string;
  pes : int;
  workers : int;
  memo : Memo.Table.t option;
  threshold : int;
  max_queue : int;
  max_solutions : int;
  faults : Resilience.Fault.plan option;
}

let config ?(pes = 1) ?(workers = Engine.Pool.default_jobs ())
    ?memo ?(threshold = 150) ?(max_queue = 256) ?(max_solutions = 1) ?faults
    ~src () =
  if pes < 1 then invalid_arg "Serve.config: pes must be >= 1";
  if workers < 1 then invalid_arg "Serve.config: workers must be >= 1";
  if threshold < 1 then invalid_arg "Serve.config: threshold must be >= 1";
  if max_queue < 1 then invalid_arg "Serve.config: max_queue must be >= 1";
  if max_solutions < 1 then
    invalid_arg "Serve.config: max_solutions must be >= 1";
  { src; pes; workers; memo; threshold; max_queue; max_solutions; faults }

type t = {
  cfg : config;
  an : Costan.Analyze.t;
  image : Wam.Program.image;  (* compiled once; shared read-only *)
  served : int Atomic.t;
  hits_ : int Atomic.t;
  inline_ : int Atomic.t;
  pooled_ : int Atomic.t;
  waves_ : int Atomic.t;
  max_depth_ : int Atomic.t;
  faulted_ : int Atomic.t;
  errors_ : int Atomic.t;
  lat : Metrics.t;
  svc : Metrics.t;
}

let create cfg =
  let db = Prolog.Database.of_string cfg.src in
  let an = Costan.Analyze.analyze db in
  {
    cfg;
    an;
    image = Wam.Program.image ~parallel:(cfg.pes > 1) db;
    served = Atomic.make 0;
    hits_ = Atomic.make 0;
    inline_ = Atomic.make 0;
    pooled_ = Atomic.make 0;
    waves_ = Atomic.make 0;
    max_depth_ = Atomic.make 0;
    faulted_ = Atomic.make 0;
    errors_ = Atomic.make 0;
    lat = Metrics.create ();
    svc = Metrics.create ();
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
   is compiled onto the server's database image, which it only reads,
   and runs on a fresh single-shot machine, so this is safe on any
   domain. *)

exception Run_error of string

let run_answers t query =
  let prog = Wam.Program.with_query t.image ~query in
  if t.cfg.pes <= 1 then begin
    let solutions, m =
      Wam.Seq.run_all ~max_solutions:t.cfg.max_solutions prog
    in
    (solutions, m.Wam.Machine.inferences)
  end
  else begin
    let result, sim = Rapwam.Sim.run ~n_workers:t.cfg.pes prog in
    match result with
    | Wam.Seq.Success bindings ->
      ([ bindings ], sim.Rapwam.Sim.m.Wam.Machine.inferences)
    | Wam.Seq.Failure -> ([], sim.Rapwam.Sim.m.Wam.Machine.inferences)
  end

let execute ?faults t query =
  try
    (match faults with
    | Some plan -> Resilience.Fault.hit ~plan "sim-step"
    | None -> ());
    let answers, inferences = run_answers t query in
    Ok (answers, inferences)
  with
  | Resilience.Fault.Injected { kind = Resilience.Fault.Crash; _ } as e ->
    raise e
  | Resilience.Fault.Injected { site; kind; occurrence } ->
    Error
      (`Fault,
       Printf.sprintf "injected %s at %s#%d"
         (Resilience.Fault.kind_name kind) site occurrence)
  | Prolog.Parser.Error (msg, pos) ->
    Error (`Run, Printf.sprintf "syntax error at %d: %s" pos msg)
  | Prolog.Database.Load_error msg ->
    Error (`Run, Printf.sprintf "load error: %s" msg)
  | Prolog.Cge.Ill_formed msg -> Error (`Run, Printf.sprintf "bad CGE: %s" msg)
  | Wam.Compile.Error msg -> Error (`Run, Printf.sprintf "compile error: %s" msg)
  | Wam.Machine.Runtime_error msg -> Error (`Run, msg)
  | Run_error msg -> Error (`Run, msg)

let run_direct t query =
  match execute t query with
  | Ok (answers, _) -> answers
  | Error (_, msg) -> raise (Run_error msg)

(* ------------------------------------------------------------------ *)
(* Serving. *)

let now () = Unix.gettimeofday ()

(* A memo hit as a finished response; [None] when the table has no
   answer (or memoing is off) and the query must actually run. *)
let lookup_hit t ~t0 ~key (rq : request) : response option =
  match (t.cfg.memo, key) with
  | Some memo, Some k -> (
    match Memo.Table.find memo k with
    | Some answers ->
      Atomic.incr t.hits_;
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
    (match cls with
    | `Fault -> Atomic.incr t.faulted_
    | `Run -> Atomic.incr t.errors_);
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

let serve t (requests : request list) : response list =
  let t0 = now () in
  let queued = ref [] in
  (* admission pass, newest decisions first in [queued] *)
  let admitted =
    List.map
      (fun rq ->
        (* the chaos site: every admission passes it *)
        Resilience.Fault.hit ?plan:t.cfg.faults "cell-start";
        let key =
          match Memo.Canon.key_of_query rq.rq_query with
          | Ok key -> Some key
          | Error _ -> None
        in
        match lookup_hit t ~t0 ~key rq with
        | Some rs -> `Done rs
        | None -> (
          match verdict t rq.rq_query with
          | Costan.Analyze.Small ->
            Atomic.incr t.inline_;
            `Done (compute t ~t0 ~key rq)
          | Costan.Analyze.Keep | Costan.Analyze.Guard _ ->
            Atomic.incr t.pooled_;
            queued := (rq, key) :: !queued;
            `Queued rq.rq_id))
      requests
  in
  (* the queued lane drains in waves of [max_queue]: backpressure is a
     deeper backlog waiting for the wave in flight *)
  let backlog = Array.of_list (List.rev !queued) in
  let depth = Array.length backlog in
  if depth > Atomic.get t.max_depth_ then Atomic.set t.max_depth_ depth;
  let results : (int, response) Hashtbl.t = Hashtbl.create (max 16 depth) in
  let pos = ref 0 in
  while !pos < depth do
    let wave = min t.cfg.max_queue (depth - !pos) in
    let slice = Array.sub backlog !pos wave in
    pos := !pos + wave;
    Atomic.incr t.waves_;
    let out =
      Engine.Pool.map ~jobs:t.cfg.workers
        (fun (rq, key) ->
          let rs = compute ~recheck:true t ~t0 ~key rq in
          if rs.rs_lane = Hit then begin
            (* second-chance hit: it left the pooled lane after all *)
            Atomic.decr t.pooled_;
            rs
          end
          else { rs with rs_lane = Pooled })
        slice
    in
    Array.iter (fun rs -> Hashtbl.replace results rs.rs_id rs) out
  done;
  let responses =
    List.map
      (function
        | `Done rs -> rs
        | `Queued id -> (
          match Hashtbl.find_opt results id with
          | Some rs -> rs
          | None -> assert false))
      admitted
  in
  (* accounting happens on the accepting thread only *)
  List.iter
    (fun rs ->
      Atomic.incr t.served;
      Metrics.add t.lat rs.rs_latency_s;
      if rs.rs_lane <> Hit && rs.rs_error = None then
        Metrics.add t.svc rs.rs_service_s)
    responses;
  responses

type stats = {
  served : int;
  hits : int;
  inline_ : int;
  pooled : int;
  waves : int;
  max_depth : int;
  faulted : int;
  errors : int;
}

let stats (t : t) : stats =
  {
    served = Atomic.get t.served;
    hits = Atomic.get t.hits_;
    inline_ = Atomic.get t.inline_;
    pooled = Atomic.get t.pooled_;
    waves = Atomic.get t.waves_;
    max_depth = Atomic.get t.max_depth_;
    faulted = Atomic.get t.faulted_;
    errors = Atomic.get t.errors_;
  }

let latencies t = t.lat
let services t = t.svc
let memo_totals t = Option.map Memo.Table.totals t.cfg.memo
