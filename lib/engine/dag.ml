(* Two-stage DAG: keyed producers, a barrier, fanned-out consumers.

   The artifact table is written only between the two pool calls (main
   domain) and read concurrently by stage-2 workers; the stage-1 join
   is the happens-before edge that makes those reads safe. *)

type ('a, 'b) t = {
  produce : (string * (unit -> 'a)) list;
  consume : (string * string * ('a -> 'b)) list;
}

let dedupe_by_key jobs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (key, _) ->
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    jobs

let run ?jobs ?(echo = false) ?watchdog ?on_consumed
    ?(stage_labels = ("generate", "simulate")) dag =
  let label1, label2 = stage_labels in
  (* Stage 1: producers. *)
  let produce = Array.of_list (dedupe_by_key dag.produce) in
  let rep1 = Report.create ~echo ~label:label1 ~total:(Array.length produce) () in
  let produced =
    Pool.map ?jobs
      ~on_done:(fun (c : _ Job.completed) ->
        Report.step rep1 ~ok:(Job.ok c) ~wall_s:c.Job.wall_s)
      (fun (key, gen) -> Job.run ?watchdog (Job.make ~key gen))
      produce
  in
  let stage1 = Report.finish rep1 in
  (* Barrier: artifacts are complete and henceforth read-only. *)
  let artifacts = Hashtbl.create (2 * Array.length produced) in
  Array.iter
    (fun (c : _ Job.completed) ->
      Hashtbl.replace artifacts c.Job.key c.Job.outcome)
    produced;
  (* Stage 2: consumers, sharing the artifact table read-only. *)
  let consume = Array.of_list dag.consume in
  let rep2 = Report.create ~echo ~label:label2 ~total:(Array.length consume) () in
  let cells =
    Pool.map ?jobs
      ~on_done:(fun (c : _ Job.completed) ->
        Report.step rep2 ~ok:(Job.ok c) ~wall_s:c.Job.wall_s;
        (* under the pool's on_done mutex: checkpoint hooks are
           serialized, so the journal never interleaves frames *)
        match on_consumed with Some h -> h c | None -> ())
      (fun (key, dep, consumer) ->
        match Hashtbl.find_opt artifacts dep with
        | None ->
          {
            Job.key;
            outcome = Error (Printf.sprintf "no producer for %S" dep);
            wall_s = 0.0;
            attempts = 0;
            timed_out = false;
          }
        | Some (Error e) ->
          {
            Job.key;
            outcome =
              Error (Printf.sprintf "producer %S failed: %s" dep e);
            wall_s = 0.0;
            attempts = 0;
            timed_out = false;
          }
        | Some (Ok artifact) ->
          Job.run ?watchdog (Job.make ~key (fun () -> consumer artifact)))
      consume
  in
  let stage2 = Report.finish rep2 in
  (cells, [ stage1; stage2 ])
