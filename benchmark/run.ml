(* What every workload reports, and the loop that times its passes.

   A pass is one fixed unit of the workload's work.  An untraced run
   repeats passes until the next one would end after --seconds (always
   at least one) and reports medians.  A traced run does a fixed
   number of untraced passes, each followed by the same pass with spans
   on, so its counts repeat exactly and the two kinds give the tracing
   overhead. *)

type ctx = { seed : int; seconds : float; traced : bool; smoke : bool }

type outcome = {
  setup_s : float array;  (** every set-up of the run *)
  pass_s : float array;  (** untraced passes *)
  traced_s : float array;  (** traced passes (traced runs only) *)
  ops : float;  (** operations completed in the untraced passes *)
  op : string;  (** what one operation is *)
  latency_s : float array;  (** per-request latencies, untraced passes *)
  request : string;  (** what one request is *)
  tally : Oracle.tally;
  digest : string;  (** of the workload's deterministic output *)
  lines : string list;  (** extra report lines *)
  ledger : Ledger.input;
  stream : Ledger.stream;  (** requests served by traced passes *)
}

(* A set-up prepares the workload and warms it with one untimed-pass
   worth of work; it is timed [setup_repeats] times and reported as the
   median.  The passes use the state the last set-up left. *)
let setup_repeats = 3

let setups f =
  let times = Array.make setup_repeats 0. in
  let last = ref None in
  for i = 0 to setup_repeats - 1 do
    let st, t = Measure.time f in
    times.(i) <- t;
    last := Some st
  done;
  (Option.get !last, times)

(* [pass ~traced] does one pass and returns its timed seconds.  A
   smoke run does one pass of each kind, so its output repeats. *)
let passes ctx ~fixed pass =
  let fixed = if ctx.smoke then 1 else fixed in
  if ctx.traced then begin
    let pairs =
      Array.init fixed (fun _ ->
          let untraced = pass ~traced:false in
          Spans.enabled := true;
          let traced = pass ~traced:true in
          Spans.enabled := false;
          (untraced, traced))
    in
    (Array.map fst pairs, Array.map snd pairs)
  end
  else if ctx.smoke then ([| pass ~traced:false |], [||])
  else begin
    let start = Measure.now () in
    let rec go acc =
      let t0 = Measure.now () in
      let acc = pass ~traced:false :: acc in
      let t1 = Measure.now () in
      if t1 -. start +. (t1 -. t0) <= ctx.seconds then go acc else acc
    in
    (Array.of_list (List.rev (go [])), [||])
  end
