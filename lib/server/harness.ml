(* The three-phase traffic experiment (memo_off / cold / warm), the
   answer cross-check, and the M/G/1 comparison. *)

type params = {
  mix : Traffic.mix;
  seed : int;
  zipf_s : float;
  requests : int;
  batch : int;
  pes : int;
  workers : int;
  memo_words : int;
  memo_shards : int;
  threshold : int;
  max_queue : int;
  faults : Resilience.Fault.plan option;
  policy : Supervise.policy;
  snapshot : string option;
  restore : string option;
}

let default_params ?(quick = false) () =
  {
    mix =
      (if quick then [ ("qsort", 12); ("tak", 8); ("matrix", 6) ]
       else
         [ ("deriv", 24); ("qsort", 24); ("tak", 12); ("matrix", 12) ]);
    seed = 42;
    zipf_s = 1.1;
    requests = (if quick then 400 else 2000);
    batch = (if quick then 200 else 500);
    pes = 1;
    workers = Engine.Pool.default_jobs ();
    memo_words = 64 * 1024 * 1024 / 8;  (* 64 MB of 8-byte words *)
    memo_shards = 16;
    threshold = 150;
    max_queue = 256;
    faults = None;
    policy = Supervise.default_policy;
    snapshot = None;
    restore = None;
  }

type phase = {
  ph_name : string;
  ph_requests : int;
  ph_wall_s : float;
  ph_qps : float;
  ph_latency : Metrics.summary;
  ph_service : Metrics.summary;
  ph_hit_rate : float;
  ph_sup : Supervise.stats;
  ph_availability : float;
}

type mg1_check = {
  q_lambda : float;
  q_service_s : float;
  q_cs2 : float;
  q_capped : bool;
  q_predicted_s : float;
  q_measured_s : float;
  q_ratio : float;
}

type outcome = {
  o_params : params;
  o_pool_size : int;
  o_off : phase;
  o_cold : phase;
  o_warm : phase;
  o_memo : Memo.Table.totals;
  o_snapshot_entries : int option;
  o_answers_checked : int;
  o_answers_equal : bool;
  o_mismatches : (string * string * string) list;
  o_mg1 : mg1_check;
}

(* Typed validation of the numeric parameters.  The CLI's [pos_int]
   converter already rejects bad flag values, but programmatic callers
   build [params] records directly, so the library enforces the same
   discipline before committing to a run. *)
let validate p =
  let pos name v =
    if v <= 0 then
      Some (Printf.sprintf "%s must be a positive integer (got %d)" name v)
    else None
  in
  let problems =
    List.filter_map Fun.id
      [
        pos "requests" p.requests;
        pos "batch" p.batch;
        pos "pes" p.pes;
        pos "workers" p.workers;
        pos "memo_words" p.memo_words;
        pos "memo_shards" p.memo_shards;
        pos "threshold" p.threshold;
        pos "max_queue" p.max_queue;
        (if p.zipf_s <= 0. then
           Some (Printf.sprintf "zipf_s must be positive (got %g)" p.zipf_s)
         else None);
        (if p.mix = [] then Some "mix must name at least one benchmark"
         else None);
        List.find_map
          (fun (name, w) ->
            if w <= 0 then
              Some
                (Printf.sprintf "mix weight for %s must be positive (got %d)"
                   name w)
            else None)
          p.mix;
      ]
  in
  match problems with [] -> Ok () | ps -> Error (String.concat "; " ps)

let batches ~batch requests =
  let n = Array.length requests in
  let out = ref [] in
  let pos = ref 0 in
  while !pos < n do
    let len = min batch (n - !pos) in
    out := Array.to_list (Array.sub requests !pos len) :: !out;
    pos := !pos + len
  done;
  List.rev !out

(* Serve the whole stream on a supervised server, batch by batch, and
   summarize the phase from the supervisor's accounting (each phase
   uses a fresh Serve.t + Supervise.t, so stats and metrics are
   per-phase even when the memo table is shared). *)
let run_phase ~name sup requests ~batch =
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun b -> ignore (Supervise.serve sup b))
    (batches ~batch requests);
  let wall = Unix.gettimeofday () -. t0 in
  let st = Supervise.stats sup in
  let served = st.Supervise.served in
  {
    ph_name = name;
    ph_requests = served;
    ph_wall_s = wall;
    ph_qps = (if wall <= 0.0 then 0.0 else float_of_int served /. wall);
    ph_latency = Metrics.summary (Supervise.latencies sup);
    ph_service = Metrics.summary (Supervise.services sup);
    ph_hit_rate =
      (if served = 0 then 0.0
       else float_of_int st.Supervise.hits /. float_of_int served);
    ph_sup = st;
    ph_availability = Supervise.availability st;
  }

(* Served answers vs the direct engine: every distinct pool query,
   canonical text vs canonical text (or error text vs error text),
   served the way every phase is served but under the default
   policy. *)
let cross_check oracle_server server pool =
  let sup = Supervise.create server in
  let mismatches = ref [] in
  let checked = ref 0 in
  let text = function
    | Ok answers ->
      String.concat " ; " (List.map Memo.Canon.answer_text answers)
    | Error msg -> "error: " ^ msg
  in
  Array.iter
    (fun query ->
      let want = text (Serve.run_direct oracle_server query) in
      match Supervise.serve sup [ { Serve.rq_id = 0; rq_query = query } ] with
      | [ { Supervise.sv = rs; _ } ] ->
        incr checked;
        let served =
          text
            (match rs.Serve.rs_error with
            | None -> Ok rs.Serve.rs_answers
            | Some msg -> Error msg)
        in
        if served <> want then
          mismatches := (query, served, want) :: !mismatches
      | _ -> ())
    pool;
  (!checked, List.rev !mismatches)

(* The M/G/1 cross-check reads the memo-off phase: service time from
   the measured per-execution distribution, arrival rate per worker
   from the measured throughput.  A batch-saturated server sits at the
   model's stability edge, so the arrival rate is capped at 95%
   utilization before evaluating — the cap is recorded. *)
let mg1_of ~service ~cs2 ~off ~workers =
  let arrival = off.ph_qps /. float_of_int (max 1 workers) in
  let cap = if service > 0.0 then 0.95 /. service else arrival in
  let capped = arrival > cap in
  let lambda = if capped then cap else arrival in
  let model = Queueing.Mg1.make ~cs2 ~lambda ~service () in
  let predicted = Queueing.Mg1.mean_response model in
  let measured = off.ph_latency.Metrics.mean_s in
  {
    q_lambda = lambda;
    q_service_s = service;
    q_cs2 = cs2;
    q_capped = capped;
    q_predicted_s = predicted;
    q_measured_s = measured;
    q_ratio = (if measured > 0.0 then predicted /. measured else 0.0);
  }

let make_table p =
  Memo.Table.create ~shards:p.memo_shards ~capacity_words:p.memo_words ()

let restore_into ~progress p memo =
  match p.restore with
  | None -> None
  | Some path ->
    let st = Memo.Snapshot.restore memo path in
    progress
      (Printf.sprintf "restored %d entries from %s (%d skipped%s)"
         st.Memo.Snapshot.entries path st.Memo.Snapshot.skipped
         (if st.Memo.Snapshot.torn then ", torn tail" else ""));
    Some st

(* Save the table, arming the ["snapshot-write"] site if the plan has
   anything left for it.  An injected write fault, a crash included, is
   contained: the snapshot is simply lost or torn, which is the
   scenario restore salvages. *)
let save_snapshot ~progress p memo path =
  match Memo.Snapshot.save ?plan:p.faults memo path with
  | entries ->
    progress (Printf.sprintf "snapshot: %d entries to %s" entries path);
    entries
  | exception Resilience.Fault.Injected { site; kind; occurrence } ->
    progress
      (Printf.sprintf "snapshot lost: injected %s at %s#%d"
         (Resilience.Fault.kind_name kind) site occurrence);
    0

(* What both experiments start from: the validated params, the pool of
   distinct queries, the request stream, a factory of servers over the
   mix's database, and the supervisor every phase serves through. *)
let setup ~caller p =
  (match validate p with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Server.Harness.%s: %s" caller msg));
  let src = Traffic.database p.mix in
  let mk ?memo ?faults () =
    Serve.create
      (Serve.config ~pes:p.pes ~workers:p.workers ?memo
         ~threshold:p.threshold ~max_queue:p.max_queue ?faults ~src ())
  in
  ( Traffic.pool p.mix ~seed:p.seed,
    Traffic.requests p.mix ~seed:p.seed ~s:p.zipf_s ~n:p.requests,
    mk,
    fun server -> Supervise.create ~policy:p.policy server )

let run ?(progress = fun _ -> ()) p =
  let pool, requests, mk, sup = setup ~caller:"run" p in
  (* the cold phase's table, warm-started first: a snapshot that
     cannot be restored fails the run before anything is served *)
  let memo = make_table p in
  ignore (restore_into ~progress p memo);
  progress
    (Printf.sprintf "pool %d distinct queries, %d requests, zipf s=%.2f"
       (Array.length pool) p.requests p.zipf_s);
  (* phase 1: no table *)
  let off_server = mk () in
  let off_sup = sup off_server in
  let off = run_phase ~name:"memo_off" off_sup requests ~batch:p.batch in
  progress
    (Printf.sprintf "memo_off: %.0f q/s, p99 %.2f ms" off.ph_qps
       (off.ph_latency.Metrics.p99_s *. 1000.0));
  (* phase 2: cold table (warm-started when restoring); the chaos phase *)
  let cold_server = mk ~memo ?faults:p.faults () in
  let cold = run_phase ~name:"cold" (sup cold_server) requests ~batch:p.batch in
  progress
    (Printf.sprintf "cold: %.0f q/s, hit rate %.2f, availability %.3f"
       cold.ph_qps cold.ph_hit_rate cold.ph_availability);
  (* phase 3: same table, fresh accounting *)
  let warm_server = mk ~memo () in
  let warm = run_phase ~name:"warm" (sup warm_server) requests ~batch:p.batch in
  progress
    (Printf.sprintf "warm: %.0f q/s, hit rate %.2f" warm.ph_qps
       warm.ph_hit_rate);
  let snapshot_entries =
    Option.map (save_snapshot ~progress p memo) p.snapshot
  in
  (* cross-check through yet another server sharing the table: answers
     must survive memoing; the oracle runs direct *)
  let checked, mismatches =
    cross_check off_server (mk ~memo ()) pool
  in
  let service, cs2 = Metrics.mean_and_cs2 (Supervise.services off_sup) in
  {
    o_params = p;
    o_pool_size = Array.length pool;
    o_off = off;
    o_cold = cold;
    o_warm = warm;
    o_memo = Memo.Table.totals memo;
    o_snapshot_entries = snapshot_entries;
    o_answers_checked = checked;
    o_answers_equal = mismatches = [];
    o_mismatches = mismatches;
    o_mg1 = mg1_of ~service ~cs2 ~off ~workers:p.workers;
  }

let hit_rate_ok o = o.o_cold.ph_hit_rate >= 0.5
let warm_speedup_ok o = o.o_warm.ph_qps > o.o_off.ph_qps

let p99_finite o =
  let f = o.o_cold.ph_latency.Metrics.p99_s in
  Float.is_finite f && f >= 0.0

let mg1_ratio_ok o =
  Float.is_finite o.o_mg1.q_ratio && o.o_mg1.q_ratio > 0.0

(* ------------------------------------------------------------------ *)
(* The availability experiment: one stream served under faults + full
   supervision, then warm, then snapshot -> kill -> restore -> serve
   again.  The claims: the supervised server stays >= 95% available
   through the chaos, answers survive it, and a hot restart from the
   snapshot warm-starts the hit rate to within 5 points of the
   pre-restart table. *)

type chaos = {
  c_params : params;
  c_pool_size : int;
  c_chaos : phase;
  c_warm : phase;
  c_restart : phase;
  c_snapshot_entries : int;
  c_restore : Memo.Snapshot.restore_stats;
  c_hit_delta : float;
  c_answers_checked : int;
  c_answers_equal : bool;
  c_mismatches : (string * string * string) list;
}

let run_chaos ?(progress = fun _ -> ()) p =
  let pool, requests, mk, sup = setup ~caller:"run_chaos" p in
  let snapshot_path, temp_snapshot =
    match p.snapshot with
    | Some path -> (path, false)
    | None -> (Filename.temp_file "rapwam-memo" ".snapshot", true)
  in
  progress
    (Printf.sprintf "pool %d distinct queries, %d requests, faults [%s]"
       (Array.length pool) p.requests
       (match p.faults with
       | None -> ""
       | Some plan -> Resilience.Fault.to_string plan));
  (* phase 1: the chaos phase — fresh (or restored) table, fault plan
     armed, full supervision *)
  let memo = make_table p in
  ignore (restore_into ~progress p memo);
  let chaos_server = mk ~memo ?faults:p.faults () in
  let chaos =
    run_phase ~name:"chaos" (sup chaos_server) requests ~batch:p.batch
  in
  progress
    (Printf.sprintf "chaos: %.0f q/s, availability %.3f, hit rate %.2f"
       chaos.ph_qps chaos.ph_availability chaos.ph_hit_rate);
  (* phase 2: same table, faults spent — the pre-restart baseline *)
  let warm = run_phase ~name:"warm" (sup (mk ~memo ())) requests ~batch:p.batch in
  progress
    (Printf.sprintf "warm: %.0f q/s, hit rate %.2f" warm.ph_qps
       warm.ph_hit_rate);
  (* snapshot, "kill", restore into a brand-new table *)
  let snapshot_entries = save_snapshot ~progress p memo snapshot_path in
  let memo2 = make_table p in
  let restore_stats =
    if Sys.file_exists snapshot_path then
      Memo.Snapshot.restore memo2 snapshot_path
    else { Memo.Snapshot.entries = 0; skipped = 0; torn = false }
  in
  if temp_snapshot && Sys.file_exists snapshot_path then
    Sys.remove snapshot_path;
  progress
    (Printf.sprintf "restart: restored %d/%d entries"
       restore_stats.Memo.Snapshot.entries snapshot_entries);
  (* phase 3: the restarted server, warm from the snapshot alone *)
  let restart =
    run_phase ~name:"restart" (sup (mk ~memo:memo2 ())) requests
      ~batch:p.batch
  in
  progress
    (Printf.sprintf "restart: %.0f q/s, hit rate %.2f" restart.ph_qps
       restart.ph_hit_rate);
  let checked, mismatches = cross_check (mk ()) (mk ~memo:memo2 ()) pool in
  {
    c_params = p;
    c_pool_size = Array.length pool;
    c_chaos = chaos;
    c_warm = warm;
    c_restart = restart;
    c_snapshot_entries = snapshot_entries;
    c_restore = restore_stats;
    c_hit_delta = Float.abs (warm.ph_hit_rate -. restart.ph_hit_rate);
    c_answers_checked = checked;
    c_answers_equal = mismatches = [];
    c_mismatches = mismatches;
  }

let availability_ok c = c.c_chaos.ph_availability >= 0.95
let warm_restart_ok c = c.c_hit_delta <= 0.05
let chaos_answers_ok c = c.c_answers_equal
