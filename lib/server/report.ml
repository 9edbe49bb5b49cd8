(* BENCH_server.json and BENCH_chaos.json as Obs.Json values, plus
   the text summaries. *)

open Harness
module J = Obs.Json

let latency (s : Metrics.summary) =
  J.Obj
    [
      ("n", J.Int s.Metrics.n);
      ("mean_s", J.Float s.Metrics.mean_s);
      ("p50_s", J.Float s.Metrics.p50_s);
      ("p95_s", J.Float s.Metrics.p95_s);
      ("p99_s", J.Float s.Metrics.p99_s);
      ("max_s", J.Float s.Metrics.max_s);
    ]

let phase (ph : phase) =
  let sv = ph.ph_sup in
  J.Obj
    [
      ("phase", J.String ph.ph_name);
      ("requests", J.Int ph.ph_requests);
      ("wall_s", J.Float ph.ph_wall_s);
      ("throughput_qps", J.Float ph.ph_qps);
      ("hit_rate", J.Float ph.ph_hit_rate);
      ("latency", latency ph.ph_latency);
      ("service", latency ph.ph_service);
      ( "lanes",
        J.Obj
          [
            ("hits", J.Int sv.Supervise.hits);
            ("inline", J.Int sv.Supervise.inline_);
            ("pooled", J.Int sv.Supervise.pooled);
          ] );
      ("waves", J.Int sv.Supervise.waves);
      ("max_queue_depth", J.Int sv.Supervise.max_depth);
      (* every unavailable outcome but a shed one *)
      ( "faulted",
        J.Int
          (sv.Supervise.faulted + sv.Supervise.crashed + sv.Supervise.timeouts)
      );
      ("errors", J.Int sv.Supervise.errors);
      ("availability", J.Float ph.ph_availability);
      ( "outcomes",
        J.Obj
          [
            ("ok", J.Int sv.Supervise.ok);
            ("retried", J.Int sv.Supervise.retried);
            ("timeout", J.Int sv.Supervise.timeouts);
            ("shed", J.Int sv.Supervise.shed);
            ("crashed", J.Int sv.Supervise.crashed);
            ("faulted", J.Int sv.Supervise.faulted);
          ] );
      ( "breaker",
        J.Obj
          [
            ("opens", J.Int sv.Supervise.breaker_opens);
            ("fastfails", J.Int sv.Supervise.breaker_fastfails);
          ] );
      ("pool_respawns", J.Int sv.Supervise.pool_respawns);
    ]

let faults = function
  | None -> J.String ""
  | Some plan -> J.String (Resilience.Fault.to_string plan)

(* Present only when some answer differed. *)
let mismatches = function
  | [] -> []
  | ms ->
    [
      ( "mismatches",
        J.List
          (List.map
             (fun (query, served, want) ->
               J.Obj
                 [
                   ("query", J.String query);
                   ("served", J.String served);
                   ("direct", J.String want);
                 ])
             ms) );
    ]

let to_json (o : outcome) =
  let p = o.o_params in
  let m = o.o_memo in
  let q = o.o_mg1 in
  J.Obj
    ([
       ("schema", J.String "rapwam-server/1");
       ( "params",
         J.Obj
           [
             ("mix", J.String (Traffic.mix_to_string p.mix));
             ("seed", J.Int p.seed);
             ("zipf_s", J.Float p.zipf_s);
             ("requests", J.Int p.requests);
             ("batch", J.Int p.batch);
             ("pes", J.Int p.pes);
             ("workers", J.Int p.workers);
             ("memo_words", J.Int p.memo_words);
             ("memo_shards", J.Int p.memo_shards);
             ("threshold", J.Int p.threshold);
             ("max_queue", J.Int p.max_queue);
             ("faults", faults p.faults);
           ] );
       ("pool_size", J.Int o.o_pool_size);
       ("phases", J.List (List.map phase [ o.o_off; o.o_cold; o.o_warm ]));
       ( "memo",
         J.Obj
           [
             ("hits", J.Int m.Memo.Table.hits);
             ("misses", J.Int m.Memo.Table.misses);
             ("inserts", J.Int m.Memo.Table.inserts);
             ("duplicates", J.Int m.Memo.Table.duplicates);
             ("evictions", J.Int m.Memo.Table.evictions);
             ("entries", J.Int m.Memo.Table.entries);
             ("words", J.Int m.Memo.Table.words);
             ("hit_rate", J.Float (Memo.Table.hit_rate m));
           ] );
       ( "mg1",
         J.Obj
           [
             ("lambda_per_worker", J.Float q.q_lambda);
             ("service_s", J.Float q.q_service_s);
             ("cs2", J.Float q.q_cs2);
             ("capped_for_stability", J.Bool q.q_capped);
             ("predicted_mean_s", J.Float q.q_predicted_s);
             ("measured_mean_s", J.Float q.q_measured_s);
             ("predicted_over_measured", J.Float q.q_ratio);
           ] );
       ("answers_checked", J.Int o.o_answers_checked);
     ]
    @ mismatches o.o_mismatches
    @ [
        ("answers_equal", J.Bool o.o_answers_equal);
        ("hit_rate_ok", J.Bool (hit_rate_ok o));
        ("warm_speedup_ok", J.Bool (warm_speedup_ok o));
        ("p99_finite", J.Bool (p99_finite o));
        ("mg1_ratio_ok", J.Bool (mg1_ratio_ok o));
      ])

let write_json path o =
  Resilience.Atomic_io.write_string path (J.to_string (to_json o))

let policy (pol : Supervise.policy) =
  let opt f = function Some x -> f x | None -> J.Null in
  J.Obj
    [
      ("deadline_s", opt (fun d -> J.Float d) pol.Supervise.deadline_s);
      ("retries", J.Int pol.Supervise.retries);
      ( "breaker",
        opt
          (fun b ->
            J.Obj
              [
                ("window", J.Int b.Supervise.window);
                ("trip_ratio", J.Float b.Supervise.trip_ratio);
                ("min_samples", J.Int b.Supervise.min_samples);
                ("cooldown", J.Int b.Supervise.cooldown);
              ])
          pol.Supervise.breaker );
      ("shed_watermark", opt (fun w -> J.Int w) pol.Supervise.shed_watermark);
    ]

let chaos_to_json (c : chaos) =
  let p = c.c_params in
  J.Obj
    ([
       ("schema", J.String "rapwam-chaos/1");
       ( "params",
         J.Obj
           [
             ("mix", J.String (Traffic.mix_to_string p.mix));
             ("seed", J.Int p.seed);
             ("zipf_s", J.Float p.zipf_s);
             ("requests", J.Int p.requests);
             ("batch", J.Int p.batch);
             ("pes", J.Int p.pes);
             ("workers", J.Int p.workers);
             ("threshold", J.Int p.threshold);
             ("max_queue", J.Int p.max_queue);
             ("faults", faults p.faults);
             ("policy", policy p.policy);
           ] );
       ("pool_size", J.Int c.c_pool_size);
       ( "phases",
         J.List (List.map phase [ c.c_chaos; c.c_warm; c.c_restart ]) );
       ( "snapshot",
         J.Obj
           [
             ("saved_entries", J.Int c.c_snapshot_entries);
             ("restored_entries", J.Int c.c_restore.Memo.Snapshot.entries);
             ("skipped", J.Int c.c_restore.Memo.Snapshot.skipped);
             ("torn", J.Bool c.c_restore.Memo.Snapshot.torn);
           ] );
       ("availability", J.Float c.c_chaos.ph_availability);
       ("hit_rate_delta", J.Float c.c_hit_delta);
       ("answers_checked", J.Int c.c_answers_checked);
     ]
    @ mismatches c.c_mismatches
    @ [
        ("answers_equal", J.Bool c.c_answers_equal);
        ("availability_ok", J.Bool (availability_ok c));
        ("warm_restart_ok", J.Bool (warm_restart_ok c));
      ])

let write_chaos_json path c =
  Resilience.Atomic_io.write_string path (J.to_string (chaos_to_json c))

let pp_chaos fmt (c : chaos) =
  let p = c.c_params in
  Format.fprintf fmt "mix %s, %d requests over %d distinct queries@."
    (Traffic.mix_to_string p.mix) p.requests c.c_pool_size;
  Format.fprintf fmt "%-9s %9s %10s %10s %7s %8s@." "phase" "q/s" "p50" "p99"
    "hit%" "avail";
  List.iter
    (fun ph ->
      let l = ph.ph_latency in
      Format.fprintf fmt "%-9s %9.0f %9.2fms %9.2fms %6.1f%% %8.3f@."
        ph.ph_name ph.ph_qps
        (l.Metrics.p50_s *. 1000.0)
        (l.Metrics.p99_s *. 1000.0)
        (100.0 *. ph.ph_hit_rate)
        ph.ph_availability)
    [ c.c_chaos; c.c_warm; c.c_restart ];
  let sv = c.c_chaos.ph_sup in
  Format.fprintf fmt
    "chaos outcomes: %d ok (%d retried), %d timeout, %d shed, %d crashed, \
     %d faulted; breaker %d opens, %d fast-fails; %d pool respawns@."
    sv.Supervise.ok sv.Supervise.retried sv.Supervise.timeouts
    sv.Supervise.shed sv.Supervise.crashed sv.Supervise.faulted
    sv.Supervise.breaker_opens sv.Supervise.breaker_fastfails
    sv.Supervise.pool_respawns;
  Format.fprintf fmt
    "snapshot: %d entries saved, %d restored (%d skipped); hit-rate delta \
     %.3f@."
    c.c_snapshot_entries c.c_restore.Memo.Snapshot.entries
    c.c_restore.Memo.Snapshot.skipped c.c_hit_delta;
  Format.fprintf fmt
    "answers: %d/%d checked, equal = %b; availability %.3f (>= 0.95: %b); \
     warm restart ok = %b@."
    c.c_answers_checked c.c_pool_size c.c_answers_equal
    c.c_chaos.ph_availability (availability_ok c) (warm_restart_ok c)

let pp fmt (o : outcome) =
  let p = o.o_params in
  Format.fprintf fmt "mix %s, %d requests over %d distinct queries@."
    (Traffic.mix_to_string p.mix) p.requests o.o_pool_size;
  Format.fprintf fmt "%-9s %9s %10s %10s %10s %10s %8s@." "phase" "q/s"
    "mean" "p50" "p95" "p99" "hit%";
  List.iter
    (fun ph ->
      let l = ph.ph_latency in
      Format.fprintf fmt "%-9s %9.0f %9.2fms %9.2fms %9.2fms %9.2fms %7.1f%%@."
        ph.ph_name ph.ph_qps
        (l.Metrics.mean_s *. 1000.0)
        (l.Metrics.p50_s *. 1000.0)
        (l.Metrics.p95_s *. 1000.0)
        (l.Metrics.p99_s *. 1000.0)
        (100.0 *. ph.ph_hit_rate))
    [ o.o_off; o.o_cold; o.o_warm ];
  let m = o.o_memo in
  Format.fprintf fmt
    "memo: %d entries, %d words, %d inserts, %d duplicates deduped, %d \
     evictions@."
    m.Memo.Table.entries m.Memo.Table.words m.Memo.Table.inserts
    m.Memo.Table.duplicates m.Memo.Table.evictions;
  Format.fprintf fmt
    "answers: %d/%d distinct queries checked, equal = %b@."
    o.o_answers_checked o.o_pool_size o.o_answers_equal;
  let q = o.o_mg1 in
  Format.fprintf fmt
    "M/G/1: predicted %.2f ms vs measured %.2f ms (ratio %.3f%s)@."
    (q.q_predicted_s *. 1000.0)
    (q.q_measured_s *. 1000.0)
    q.q_ratio
    (if q.q_capped then ", lambda capped at 95% utilization" else "")
