(* Progress counters and the machine-readable perf record. *)

type stage = {
  label : string;
  total : int;
  failed : int;
  wall_s : float;
  job_wall_s : float;
  jobs_per_sec : float;
}

type t = {
  label : string;
  total : int;
  mutable done_ : int;
  mutable failures : int;
  mutable job_wall_s : float;
  started : float;
  echo : bool;
  lock : Mutex.t;
}

let create ?(echo = false) ~label ~total () =
  {
    label;
    total;
    done_ = 0;
    failures = 0;
    job_wall_s = 0.0;
    started = Unix.gettimeofday ();
    echo;
    lock = Mutex.create ();
  }

let step t ~ok ~wall_s =
  Mutex.protect t.lock (fun () ->
      t.done_ <- t.done_ + 1;
      if not ok then t.failures <- t.failures + 1;
      t.job_wall_s <- t.job_wall_s +. wall_s;
      if t.echo then begin
        let elapsed = Unix.gettimeofday () -. t.started in
        Printf.eprintf "\r[%s] %d/%d jobs%s (%.1f jobs/s)%!" t.label t.done_
          t.total
          (if t.failures > 0 then Printf.sprintf ", %d failed" t.failures
           else "")
          (float_of_int t.done_ /. Float.max 1e-9 elapsed)
      end)

let finish t =
  if t.echo && t.done_ > 0 then prerr_newline ();
  let wall_s = Unix.gettimeofday () -. t.started in
  {
    label = t.label;
    total = t.total;
    failed = t.failures;
    wall_s;
    job_wall_s = t.job_wall_s;
    jobs_per_sec = float_of_int t.done_ /. Float.max 1e-9 wall_s;
  }

let pp_stage fmt (s : stage) =
  Format.fprintf fmt "[%s] %d jobs%s in %.2fs (%.1f jobs/s)" s.label s.total
    (if s.failed > 0 then Format.sprintf ", %d failed" s.failed else "")
    s.wall_s s.jobs_per_sec

(* ------------------------------------------------------------------ *)
(* BENCH_engine.json: the perf trajectory future PRs compare against. *)

let write_perf_record ~path ~jobs ~wall_s ?(extra = []) (stages : stage list) =
  let module J = Obs.Json in
  let total_jobs = List.fold_left (fun a (s : stage) -> a + s.total) 0 stages in
  let failed = List.fold_left (fun a (s : stage) -> a + s.failed) 0 stages in
  let stage (s : stage) =
    J.Obj
      [
        ("label", J.String s.label);
        ("jobs", J.Int s.total);
        ("failed", J.Int s.failed);
        ("wall_s", J.Float s.wall_s);
        ("job_wall_s", J.Float s.job_wall_s);
        ("jobs_per_sec", J.Float s.jobs_per_sec);
      ]
  in
  Resilience.Atomic_io.write_string path
    (J.to_string
       (J.Obj
          ([
             ("schema", J.String "rapwam-engine-perf/1");
             ("jobs", J.Int jobs);
             ("host_domains", J.Int (Domain.recommended_domain_count ()));
             ("total_jobs", J.Int total_jobs);
             ("failed_jobs", J.Int failed);
             ("wall_s", J.Float wall_s);
             ( "jobs_per_sec",
               J.Float (float_of_int total_jobs /. Float.max 1e-9 wall_s) );
           ]
          @ List.map (fun (k, v) -> (k, J.Float v)) extra
          @ [ ("stages", J.List (List.map stage stages)) ])))
