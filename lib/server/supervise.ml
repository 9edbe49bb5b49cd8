(* The supervisor: the query server's batch loop, with availability
   discipline wrapped around {!Serve}'s lanes.

   It drives the three lanes through {!Serve}'s per-request
   primitives.  Every execution runs under a deadline + seeded-backoff
   retry ({!Engine.Job}'s watchdog), a worker crash poisons only its
   own request (the pool is respawned for the remainder), a predicate
   whose recent pooled runs keep failing gets a circuit breaker in
   front of it, and a backlog over the high-watermark is shed
   cheapest-to-refuse-first.  Memo hits and Small-inline work stay
   live throughout — the point of admission control is knowing which
   work is too cheap to refuse.

   Threading: all supervision state (counters, breaker circuits, the
   breaker clock, metrics) is read and written on the accepting thread
   only.  Worker domains run {!Serve.compute} and nothing else, so the
   only shared state is the memo table, which is already sharded. *)

type outcome = Ok | Retried of int | Timeout | Shed | Crashed | Faulted

let outcome_name = function
  | Ok -> "ok"
  | Retried _ -> "retried"
  | Timeout -> "timeout"
  | Shed -> "shed"
  | Crashed -> "crashed"
  | Faulted -> "faulted"

let available = function Ok | Retried _ -> true | _ -> false

type response = {
  sv : Serve.response;
  sv_outcome : outcome;
  sv_attempts : int;
}

(* ------------------------------------------------------------------ *)
(* Policy. *)

type breaker_cfg = {
  window : int;
  trip_ratio : float;
  min_samples : int;
  cooldown : int;
}

let breaker_default =
  { window = 8; trip_ratio = 0.5; min_samples = 4; cooldown = 64 }

let breaker_of_spec spec =
  let cfg = breaker_default in
  match String.trim spec with
  | "" | "on" | "default" -> Stdlib.Ok cfg
  | spec ->
    let items =
      List.filter (fun s -> s <> "")
        (List.map String.trim (String.split_on_char ',' spec))
    in
    List.fold_left
      (fun acc item ->
        match acc with
        | Stdlib.Error _ as e -> e
        | Stdlib.Ok cfg -> (
          match String.index_opt item '=' with
          | None ->
            Stdlib.Error
              (Printf.sprintf "breaker %S: expected KEY=VALUE" item)
          | Some i -> (
            let k = String.sub item 0 i in
            let v = String.sub item (i + 1) (String.length item - i - 1) in
            let int_v () =
              match int_of_string_opt v with
              | Some n when n >= 1 -> Stdlib.Ok n
              | _ ->
                Stdlib.Error
                  (Printf.sprintf "breaker %s=%S: expected a positive int" k v)
            in
            match k with
            | "window" ->
              Stdlib.Result.map (fun n -> { cfg with window = n }) (int_v ())
            | "min" ->
              Stdlib.Result.map
                (fun n -> { cfg with min_samples = n })
                (int_v ())
            | "cooldown" ->
              Stdlib.Result.map (fun n -> { cfg with cooldown = n }) (int_v ())
            | "trip" -> (
              match float_of_string_opt v with
              | Some r when r > 0. && r <= 1. ->
                Stdlib.Ok { cfg with trip_ratio = r }
              | _ ->
                Stdlib.Error
                  (Printf.sprintf "breaker trip=%S: expected a ratio in (0,1]"
                     v))
            | _ ->
              Stdlib.Error
                (Printf.sprintf
                   "breaker %S: unknown key (window|trip|min|cooldown)" item))))
      (Stdlib.Ok cfg) items

type policy = {
  deadline_s : float option;
  retries : int;
  breaker : breaker_cfg option;
  shed_watermark : int option;
  lethal_crash : bool;
}

let default_policy =
  {
    deadline_s = None;
    retries = 0;
    breaker = None;
    shed_watermark = None;
    lethal_crash = false;
  }

let policy ?deadline_s ?(retries = 0) ?breaker ?shed_watermark
    ?(lethal_crash = false) () =
  (match deadline_s with
  | Some d when d <= 0. ->
    invalid_arg "Supervise.policy: deadline_s must be positive"
  | _ -> ());
  if retries < 0 then invalid_arg "Supervise.policy: retries must be >= 0";
  (match shed_watermark with
  | Some w when w < 1 ->
    invalid_arg "Supervise.policy: shed_watermark must be >= 1"
  | _ -> ());
  { deadline_s; retries; breaker; shed_watermark; lethal_crash }

(* ------------------------------------------------------------------ *)
(* Breaker circuits: one per predicate spec, accepting-thread only.
   The clock is a count of pooled admissions, not wall time, so the
   state machine is deterministic for a given request stream. *)

type circuit_state = Closed | Open of int (* until clock *) | Half_open

type circuit = {
  mutable cstate : circuit_state;
  mutable recent : bool list;  (* true = failure; newest first *)
  mutable n_recent : int;
}

type t = {
  server : Serve.t;
  pol : policy;
  circuits : (string, circuit) Hashtbl.t;
  mutable clock : int;
  (* outcome counters, all accepting-thread *)
  mutable served : int;
  mutable ok : int;
  mutable retried : int;
  mutable timeouts : int;
  mutable shed : int;
  mutable crashed : int;
  mutable faulted : int;
  mutable errors : int;
  mutable hits : int;
  mutable inline_ : int;
  mutable pooled : int;
  mutable waves : int;
  mutable max_depth : int;
  mutable breaker_opens : int;
  mutable breaker_fastfails : int;
  mutable pool_respawns : int;
  lat : Metrics.t;
  svc : Metrics.t;
}

let create ?(policy = default_policy) server =
  {
    server;
    pol = policy;
    circuits = Hashtbl.create 16;
    clock = 0;
    served = 0;
    ok = 0;
    retried = 0;
    timeouts = 0;
    shed = 0;
    crashed = 0;
    faulted = 0;
    errors = 0;
    hits = 0;
    inline_ = 0;
    pooled = 0;
    waves = 0;
    max_depth = 0;
    breaker_opens = 0;
    breaker_fastfails = 0;
    pool_respawns = 0;
    lat = Metrics.create ();
    svc = Metrics.create ();
  }

let server t = t.server

let circuit t spec =
  match Hashtbl.find_opt t.circuits spec with
  | Some c -> c
  | None ->
    let c = { cstate = Closed; recent = []; n_recent = 0 } in
    Hashtbl.add t.circuits spec c;
    c

let spec_of key =
  match key with Some k -> k.Memo.Canon.spec | None -> "?/0"

(* Record one pooled execution outcome against its circuit. *)
let record_outcome t cfg spec ~fail =
  let c = circuit t spec in
  match c.cstate with
  | Half_open ->
    (* the probe's verdict decides *)
    if fail then begin
      c.cstate <- Open (t.clock + cfg.cooldown);
      t.breaker_opens <- t.breaker_opens + 1
    end
    else begin
      c.cstate <- Closed;
      c.recent <- [];
      c.n_recent <- 0
    end
  | Open _ -> ()  (* an in-flight request finished after the trip *)
  | Closed ->
    let recent =
      if c.n_recent >= cfg.window then
        List.filteri (fun i _ -> i < cfg.window - 1) c.recent
      else c.recent
    in
    c.recent <- fail :: recent;
    c.n_recent <- min cfg.window (c.n_recent + 1);
    if c.n_recent >= cfg.min_samples then begin
      let fails = List.length (List.filter Fun.id c.recent) in
      if float_of_int fails /. float_of_int c.n_recent >= cfg.trip_ratio
      then begin
        c.cstate <- Open (t.clock + cfg.cooldown);
        t.breaker_opens <- t.breaker_opens + 1
      end
    end

(* ------------------------------------------------------------------ *)
(* Responses the supervisor synthesizes itself (nothing ran). *)

let now () = Unix.gettimeofday ()

let refusal ~t0 ~lane ~outcome ~fault msg (rq : Serve.request) =
  {
    sv =
      {
        Serve.rs_id = rq.Serve.rq_id;
        rs_query = rq.Serve.rq_query;
        rs_answers = [];
        rs_lane = lane;
        rs_error = Some msg;
        rs_fault = fault;
        rs_latency_s = now () -. t0;
        rs_service_s = 0.0;
        rs_inferences = 0;
      };
    sv_outcome = outcome;
    sv_attempts = 0;
  }

let fault_message site kind occurrence =
  Printf.sprintf "injected %s at %s#%d"
    (Resilience.Fault.kind_name kind) site occurrence

(* ------------------------------------------------------------------ *)
(* One supervised execution: Serve.compute under deadline + retry.
   Runs on whatever domain calls it; everything it touches is
   domain-safe.  A transient response (rs_fault) is turned into an
   exception so Job's retry machinery drives re-execution; the real
   response rides along in [slot] because Job stringifies payloads of
   failures. *)

exception Transient of string

let execute t ~t0 ~key ~recheck (rq : Serve.request) =
  let slot = Atomic.make None in
  let thunk () =
    let rs = Serve.compute ~recheck t.server ~t0 ~key rq in
    Atomic.set slot (Some rs);
    if rs.Serve.rs_fault then
      raise
        (Transient
           (match rs.Serve.rs_error with Some m -> m | None -> "fault"));
    rs
  in
  let job = Engine.Job.make ~key:(Printf.sprintf "rq-%d" rq.Serve.rq_id) thunk in
  let completed =
    match t.pol.deadline_s with
    | Some timeout_s ->
      Engine.Job.run
        ~watchdog:
          (Engine.Job.watchdog ~timeout_s ~max_attempts:(t.pol.retries + 1) ())
        job
    | None -> Engine.Job.run ~retries:t.pol.retries job
  in
  match completed.Engine.Job.outcome with
  | Stdlib.Ok rs ->
    let out =
      if completed.Engine.Job.attempts > 1 then Retried (completed.Engine.Job.attempts - 1)
      else Ok
    in
    { sv = rs; sv_outcome = out; sv_attempts = completed.Engine.Job.attempts }
  | Stdlib.Error msg ->
    let fin = now () in
    let base =
      match Atomic.get slot with
      | Some rs -> { rs with Serve.rs_latency_s = fin -. t0 }
      | None ->
        {
          Serve.rs_id = rq.Serve.rq_id;
          rs_query = rq.Serve.rq_query;
          rs_answers = [];
          rs_lane = Serve.Inline;
          rs_error = Some msg;
          rs_fault = true;
          rs_latency_s = fin -. t0;
          rs_service_s = completed.Engine.Job.wall_s;
          rs_inferences = 0;
        }
    in
    if completed.Engine.Job.timed_out then
      {
        sv =
          {
            base with
            Serve.rs_error =
              Some
                (Printf.sprintf "deadline exceeded (%gs, %d attempts)"
                   (match t.pol.deadline_s with Some d -> d | None -> 0.)
                   completed.Engine.Job.attempts);
            rs_fault = true;
            rs_answers = [];
          };
        sv_outcome = Timeout;
        sv_attempts = completed.Engine.Job.attempts;
      }
    else
      {
        sv = { base with Serve.rs_fault = true; rs_answers = [] };
        sv_outcome = Faulted;
        sv_attempts = completed.Engine.Job.attempts;
      }

(* ------------------------------------------------------------------ *)
(* The pooled lane with crash containment: run a wave through
   {!Engine.Pool.map_salvage}; a poisoned item becomes one [Crashed]
   response and a fresh pool is spawned for whatever the dying wave
   abandoned. *)

let run_wave t ~t0 (slice : (Serve.request * Memo.Canon.key option) array) =
  let n = Array.length slice in
  let results = Array.make n None in
  let lethal_crash e =
    match e with
    | Resilience.Fault.Injected { kind = Resilience.Fault.Crash; _ } -> true
    | _ -> false
  in
  let rounds = ref 0 in
  let pending () =
    Array.of_list
      (List.filter
         (fun i -> results.(i) = None)
         (List.init n (fun i -> i)))
  in
  let finished = ref false in
  while not !finished do
    let idx = pending () in
    if Array.length idx = 0 then finished := true
    else begin
      incr rounds;
      if !rounds > 1 then t.pool_respawns <- t.pool_respawns + 1;
      let out, poison =
        Engine.Pool.map_salvage ~jobs:(Serve.config_of t.server).Serve.workers
          (fun i ->
            let rq, key = slice.(i) in
            let r = execute t ~t0 ~key ~recheck:true rq in
            let r =
              if r.sv.Serve.rs_lane = Serve.Hit then r
              else { r with sv = { r.sv with Serve.rs_lane = Serve.Pooled } }
            in
            (i, r))
          idx
      in
      Array.iter
        (function Some (i, r) -> results.(i) <- Some r | None -> ())
        out;
      (match poison with
      | None -> ()
      | Some (j, e, bt) ->
        if t.pol.lethal_crash && lethal_crash e then
          Printexc.raise_with_backtrace e bt
        else if j >= 0 then begin
          (* blame exactly the item that raised; the rest rerun *)
          let rq, _ = slice.(idx.(j)) in
          results.(idx.(j)) <-
            Some
              (refusal ~t0 ~lane:Serve.Pooled ~outcome:Crashed ~fault:true
                 (Printf.sprintf "worker crashed: %s" (Printexc.to_string e))
                 rq)
        end
        else if !rounds > n + 1 then begin
          (* a helper domain keeps dying with no item to blame:
             give up on the remainder rather than loop forever *)
          Array.iter
            (fun i ->
              if results.(i) = None then
                let rq, _ = slice.(i) in
                results.(i) <-
                  Some
                    (refusal ~t0 ~lane:Serve.Pooled ~outcome:Crashed
                       ~fault:true
                       (Printf.sprintf "worker pool died: %s"
                          (Printexc.to_string e))
                       rq))
            (pending ())
        end)
    end
  done;
  Array.map
    (function Some r -> r | None -> assert false)
    results

(* ------------------------------------------------------------------ *)
(* Serving. *)

let serve t (requests : Serve.request list) : response list =
  let t0 = now () in
  let plan = (Serve.config_of t.server).Serve.faults in
  let queued = ref [] in
  (* admission: hits and Small inline answer now; a planned admission
     fault poisons only this request *)
  let admitted =
    List.map
      (fun (rq : Serve.request) ->
        match Resilience.Fault.hit ?plan "cell-start" with
        | exception
            (Resilience.Fault.Injected { kind = Resilience.Fault.Crash; _ } as
             e)
          when t.pol.lethal_crash ->
          raise e
        | exception Resilience.Fault.Injected
            { site; kind = Resilience.Fault.Crash; occurrence } ->
          `Done
            (refusal ~t0 ~lane:Serve.Inline ~outcome:Crashed ~fault:true
               (fault_message site Resilience.Fault.Crash occurrence)
               rq)
        | exception Resilience.Fault.Injected { site; kind; occurrence } ->
          `Done
            (refusal ~t0 ~lane:Serve.Inline ~outcome:Faulted ~fault:true
               (fault_message site kind occurrence)
               rq)
        | () -> (
          let key =
            match Memo.Canon.key_of_query rq.Serve.rq_query with
            | Stdlib.Ok key -> Some key
            | Stdlib.Error _ -> None
          in
          match Serve.lookup_hit t.server ~t0 ~key rq with
          | Some rs -> `Done { sv = rs; sv_outcome = Ok; sv_attempts = 0 }
          | None -> (
            match Serve.verdict t.server rq.Serve.rq_query with
            | Costan.Analyze.Small -> (
              match execute t ~t0 ~key ~recheck:false rq with
              | r -> `Done r
              | exception
                  (Resilience.Fault.Injected
                     { kind = Resilience.Fault.Crash; _ } as e)
                when not t.pol.lethal_crash ->
                (* an injected crash on the inline lane: contained to
                   this request (Job lets Crash through by design) *)
                `Done
                  (refusal ~t0 ~lane:Serve.Inline ~outcome:Crashed
                     ~fault:true
                     (Printf.sprintf "worker crashed: %s"
                        (Printexc.to_string e))
                     rq))
            | (Costan.Analyze.Keep | Costan.Analyze.Guard _) as v ->
              queued := (rq, key, v) :: !queued;
              `Queued rq.Serve.rq_id)))
      requests
  in
  let backlog = List.rev !queued in
  (* breaker: refuse pooled work on predicates that keep failing;
     the clock ticks once per pooled admission *)
  let results : (int, response) Hashtbl.t =
    Hashtbl.create (max 16 (List.length backlog))
  in
  let pooled_run = ref [] in
  (* (rq, key, spec) in admission order *)
  List.iter
    (fun ((rq : Serve.request), key, v) ->
      t.clock <- t.clock + 1;
      let spec = spec_of key in
      let admit =
        match t.pol.breaker with
        | None -> `Run
        | Some cfg -> (
          let c = circuit t spec in
          match c.cstate with
          | Closed -> `Run
          | Half_open -> `Refuse  (* a probe is already in flight *)
          | Open until ->
            if t.clock >= until then begin
              (* half-open: this request is the probe *)
              c.cstate <- Half_open;
              match Resilience.Fault.hit ?plan "breaker-probe" with
              | () -> `Run
              | exception
                  (Resilience.Fault.Injected
                     { kind = Resilience.Fault.Crash; _ } as e)
                when t.pol.lethal_crash ->
                raise e
              | exception Resilience.Fault.Injected
                  { site; kind; occurrence } ->
                (* the probe itself faulted: the circuit stays open *)
                c.cstate <- Open (t.clock + cfg.cooldown);
                t.breaker_opens <- t.breaker_opens + 1;
                let outcome =
                  if kind = Resilience.Fault.Crash then Crashed else Faulted
                in
                `Probe_fault (outcome, fault_message site kind occurrence)
            end
            else `Refuse)
      in
      match admit with
      | `Run -> pooled_run := (rq, key, v, spec) :: !pooled_run
      | `Probe_fault (outcome, msg) ->
        Hashtbl.replace results rq.Serve.rq_id
          (refusal ~t0 ~lane:Serve.Pooled ~outcome ~fault:true msg rq)
      | `Refuse ->
        t.breaker_fastfails <- t.breaker_fastfails + 1;
        Hashtbl.replace results rq.Serve.rq_id
          (refusal ~t0 ~lane:Serve.Pooled ~outcome:Shed ~fault:false
             (Printf.sprintf "circuit open for %s" spec)
             rq))
    backlog;
  let pooled_run = List.rev !pooled_run in
  let depth = List.length pooled_run in
  if depth > t.max_depth then t.max_depth <- depth;
  (* shedding: over the high-watermark, refuse the cheapest-to-refuse
     first — Keep verdicts (no cost bound at all) before Guard (whose
     runtime check may still prune), later arrivals before earlier *)
  let to_run =
    match t.pol.shed_watermark with
    | Some w when depth > w ->
      let excess = depth - w in
      let indexed = List.mapi (fun i item -> (i, item)) pooled_run in
      let order_of = function
        | Costan.Analyze.Keep -> 0
        | Costan.Analyze.Guard _ -> 1
        | Costan.Analyze.Small -> 2  (* never queued *)
      in
      let victims =
        List.sort
          (fun (i, (_, _, v1, _)) (j, (_, _, v2, _)) ->
            match compare (order_of v1) (order_of v2) with
            | 0 -> compare j i  (* later arrival first *)
            | c -> c)
          indexed
        |> List.filteri (fun k _ -> k < excess)
        |> List.map fst
      in
      List.filteri
        (fun i ((rq : Serve.request), _, _, _) ->
          if List.mem i victims then begin
            Hashtbl.replace results rq.Serve.rq_id
              (refusal ~t0 ~lane:Serve.Pooled ~outcome:Shed ~fault:false
                 (Printf.sprintf "shed: backlog %d over watermark %d" depth w)
                 rq);
            false
          end
          else true)
        pooled_run
    | _ -> pooled_run
  in
  (* waves, crash-contained *)
  let cfg = Serve.config_of t.server in
  let arr = Array.of_list (List.map (fun (rq, key, _, _) -> (rq, key)) to_run) in
  let specs = Array.of_list (List.map (fun (_, _, _, s) -> s) to_run) in
  let total = Array.length arr in
  let pos = ref 0 in
  let executed = ref [] in
  (* (spec, response), request order *)
  while !pos < total do
    let wave = min cfg.Serve.max_queue (total - !pos) in
    let slice = Array.sub arr !pos wave in
    t.waves <- t.waves + 1;
    let out = run_wave t ~t0 slice in
    Array.iteri
      (fun i r ->
        Hashtbl.replace results r.sv.Serve.rs_id r;
        executed := (specs.(!pos + i), r) :: !executed)
      out;
    pos := !pos + wave
  done;
  (* feed pooled outcomes to the breaker, in request order *)
  (match t.pol.breaker with
  | None -> ()
  | Some cfg ->
    List.iter
      (fun (spec, r) ->
        match r.sv_outcome with
        | Ok | Retried _ -> record_outcome t cfg spec ~fail:false
        | Timeout | Crashed | Faulted -> record_outcome t cfg spec ~fail:true
        | Shed -> ())
      (List.rev !executed));
  let responses =
    List.map
      (function
        | `Done r -> r
        | `Queued id -> (
          match Hashtbl.find_opt results id with
          | Some r -> r
          | None -> assert false))
      admitted
  in
  (* accounting, accepting thread only *)
  List.iter
    (fun r ->
      t.served <- t.served + 1;
      (match r.sv.Serve.rs_lane with
      | Serve.Hit -> t.hits <- t.hits + 1
      | Serve.Inline -> t.inline_ <- t.inline_ + 1
      | Serve.Pooled -> t.pooled <- t.pooled + 1);
      (match r.sv_outcome with
      | Ok -> t.ok <- t.ok + 1
      | Retried _ ->
        t.ok <- t.ok + 1;
        t.retried <- t.retried + 1
      | Timeout -> t.timeouts <- t.timeouts + 1
      | Shed -> t.shed <- t.shed + 1
      | Crashed -> t.crashed <- t.crashed + 1
      | Faulted -> t.faulted <- t.faulted + 1);
      (match (r.sv_outcome, r.sv.Serve.rs_error, r.sv.Serve.rs_fault) with
      | (Ok | Retried _), Some _, false -> t.errors <- t.errors + 1
      | _ -> ());
      Metrics.add t.lat r.sv.Serve.rs_latency_s;
      if r.sv.Serve.rs_lane <> Serve.Hit && r.sv.Serve.rs_error = None then
        Metrics.add t.svc r.sv.Serve.rs_service_s)
    responses;
  responses

(* ------------------------------------------------------------------ *)
(* Stats. *)

type stats = {
  served : int;
  ok : int;
  retried : int;
  timeouts : int;
  shed : int;
  crashed : int;
  faulted : int;
  errors : int;
  hits : int;
  inline_ : int;
  pooled : int;
  waves : int;
  max_depth : int;
  breaker_opens : int;
  breaker_fastfails : int;
  pool_respawns : int;
}

let stats (t : t) : stats =
  {
    served = t.served;
    ok = t.ok;
    retried = t.retried;
    timeouts = t.timeouts;
    shed = t.shed;
    crashed = t.crashed;
    faulted = t.faulted;
    errors = t.errors;
    hits = t.hits;
    inline_ = t.inline_;
    pooled = t.pooled;
    waves = t.waves;
    max_depth = t.max_depth;
    breaker_opens = t.breaker_opens;
    breaker_fastfails = t.breaker_fastfails;
    pool_respawns = t.pool_respawns;
  }

let availability (s : stats) =
  if s.served = 0 then 1.0 else float_of_int s.ok /. float_of_int s.served

let latencies t = t.lat
let services t = t.svc
