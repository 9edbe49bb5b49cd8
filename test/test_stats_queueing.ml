(* Tests for the statistics helpers and the bus queueing model. *)

let feq ?(eps = 1e-9) name expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %f, got %f" name expected actual

(* ---------------- Fit ---------------- *)

let test_mean_stddev () =
  feq "mean" 2.0 (Stats.Fit.mean [ 1.0; 2.0; 3.0 ]);
  feq "stddev" (sqrt (2.0 /. 3.0)) (Stats.Fit.stddev [ 1.0; 2.0; 3.0 ]);
  feq "stddev const" 0.0 (Stats.Fit.stddev [ 5.0; 5.0; 5.0 ])

let test_z_score () =
  let population = [ 1.0; 2.0; 3.0 ] in
  let sigma = Stats.Fit.stddev population in
  feq "z at mean" 0.0 (Stats.Fit.z_score ~population 2.0);
  feq "z one sigma" 1.0 (Stats.Fit.z_score ~population (2.0 +. sigma));
  feq "z degenerate" 0.0 (Stats.Fit.z_score ~population:[ 1.0; 1.0 ] 5.0)

(* ---------------- Work ---------------- *)

let run ~n_pes ~work_refs ~rounds =
  {
    Stats.Work.n_pes;
    work_refs;
    rounds;
    idle_cycles = 0;
    wait_cycles = 0;
  }

let test_work_percent () =
  let r = run ~n_pes:4 ~work_refs:1100 ~rounds:300 in
  feq "work%" 110.0 (Stats.Work.work_percent ~wam_refs:1000 r);
  feq "speedup" 4.0 (Stats.Work.speedup ~seq_rounds:1200 r)

let test_utilization () =
  let r =
    {
      (run ~n_pes:2 ~work_refs:100 ~rounds:100) with
      Stats.Work.idle_cycles = 40;
      wait_cycles = 10;
    }
  in
  feq "utilization" 0.75 (Stats.Work.utilization r)

(* ---------------- Table / Series rendering ---------------- *)

let test_table_render () =
  let t =
    Stats.Table.create ~title:"t" ~headers:[ "a"; "bb" ]
      ~aligns:[ Stats.Table.Left; Stats.Table.Right ]
      ()
  in
  Stats.Table.add_row t [ "x"; "1" ];
  Stats.Table.add_row t [ "yy"; "22" ];
  let s = Format.asprintf "%a" Stats.Table.render t in
  Alcotest.(check bool) "contains rows" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.length >= 4);
  (match Stats.Table.add_row t [ "too"; "many"; "cells" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "arity check missing")

let test_series () =
  let s = Stats.Series.create "s" in
  Stats.Series.add s 1.0 0.5;
  Stats.Series.add s 2.0 0.7;
  Alcotest.(check int) "points" 2 (List.length (Stats.Series.points s));
  let txt = Format.asprintf "%a" (fun fmt () -> Stats.Series.render_columns fmt [ s ]) () in
  Alcotest.(check bool) "has header" true
    (String.length txt > 0 && txt.[0] = '#')

(* ---------------- M/G/1 and the bus model ---------------- *)

let test_mg1_stability () =
  let q = Queueing.Mg1.make ~lambda:0.5 ~service:1.0 () in
  Alcotest.(check bool) "stable" true (Queueing.Mg1.is_stable q);
  feq "rho" 0.5 (Queueing.Mg1.utilization q);
  (* M/D/1 Pollaczek-Khinchine: W = rho*S/(2(1-rho)) = 0.5 *)
  feq "wait" 0.5 (Queueing.Mg1.mean_wait q);
  feq "response" 1.5 (Queueing.Mg1.mean_response q);
  let sat = Queueing.Mg1.make ~lambda:2.0 ~service:1.0 () in
  Alcotest.(check bool) "unstable" false (Queueing.Mg1.is_stable sat);
  Alcotest.(check bool) "infinite wait" true
    (Queueing.Mg1.mean_wait sat = infinity)

let test_mg1_exponential_service () =
  (* cs2 = 1 (M/M/1): W = rho*S/(1-rho) *)
  let q = Queueing.Mg1.make ~cs2:1.0 ~lambda:0.5 ~service:1.0 () in
  feq "M/M/1 wait" 1.0 (Queueing.Mg1.mean_wait q)

let test_busmodel_monotone () =
  let eff n =
    Queueing.Busmodel.pe_efficiency
      (Queueing.Busmodel.make ~n_pes:n ~refs_per_cycle:0.5
         ~traffic_ratio:0.3 ~bus_words_per_cycle:1.0)
  in
  Alcotest.(check bool) "eff decreases" true (eff 1 > eff 4 && eff 4 > eff 6);
  Alcotest.(check bool) "eff in (0,1]" true (eff 1 <= 1.0 && eff 6 > 0.0)

let test_mlips_paper_numbers () =
  let a = Queueing.Mlips.paper_assumptions in
  feq "bytes/LI" 180.0 (Queueing.Mlips.bytes_per_inference a);
  feq ~eps:1.0 "processor MB/s" 360.0e6
    (Queueing.Mlips.processor_bandwidth a ~lips:2.0e6);
  feq ~eps:1.0 "bus MB/s" 108.0e6
    (Queueing.Mlips.bus_bandwidth a ~lips:2.0e6)

let test_mlips_measured () =
  let m =
    Queueing.Mlips.of_measurements ~instr_per_inference:20.0
      ~refs_per_instruction:2.5 ~traffic_ratio:0.4 ()
  in
  feq "capture" 0.6 m.Queueing.Mlips.capture;
  feq "bytes" 200.0 (Queueing.Mlips.bytes_per_inference m)

(* ---------------- Freq ---------------- *)

let test_freq () =
  let counts = Array.make Wam.Instr.opcode_count 0 in
  counts.(Wam.Instr.opcode (Wam.Instr.Call 0)) <- 30;
  counts.(Wam.Instr.opcode Wam.Instr.Proceed) <- 70;
  match Stats.Freq.of_counts counts with
  | [ first; second ] ->
    Alcotest.(check string) "top" "proceed" first.Stats.Freq.name;
    feq "percent" 70.0 first.Stats.Freq.percent;
    Alcotest.(check string) "next" "call" second.Stats.Freq.name
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l)

(* ---------------- zipf sampler ---------------- *)

let empirical_freqs ~s ~n ~seed ~draws =
  let sample = Stats.Freq.zipf ~s ~n ~seed in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = sample () in
    if r < 0 || r >= n then Alcotest.failf "zipf rank %d out of [0,%d)" r n;
    counts.(r) <- counts.(r) + 1
  done;
  Array.map (fun c -> float_of_int c /. float_of_int draws) counts

let test_zipf_weights () =
  let w = Stats.Freq.zipf_weights ~s:1.1 ~n:10 in
  feq ~eps:1e-9 "normalized" 1.0 (Array.fold_left ( +. ) 0.0 w);
  for i = 0 to 8 do
    if w.(i) <= w.(i + 1) then
      Alcotest.failf "weights not strictly decreasing at rank %d" i
  done;
  (* weight ratio follows (r2/r1)^s *)
  feq ~eps:1e-9 "ratio" (2.0 ** 1.1) (w.(0) /. w.(1))

let test_zipf_deterministic () =
  let stream seed =
    let sample = Stats.Freq.zipf ~s:1.1 ~n:20 ~seed in
    Array.init 100 (fun _ -> sample ())
  in
  let a = stream 42 and b = stream 42 and c = stream 43 in
  Alcotest.(check bool) "same seed, same draws" true (a = b);
  Alcotest.(check bool) "different seed, different draws" true (a <> c)

(* The satellite property: over random (s, n, seed), empirical
   frequencies are monotone in rank and match the theoretical weights
   within tolerance. *)
let zipf_qcheck =
  QCheck.Test.make ~count:25 ~name:"zipf frequencies match weights"
    (QCheck.triple
       (QCheck.float_range 0.5 2.0)
       (QCheck.int_range 2 40)
       (QCheck.int_range 1 100000))
    (fun (s, n, seed) ->
      let draws = 20000 in
      let freqs = empirical_freqs ~s ~n ~seed ~draws in
      let weights = Stats.Freq.zipf_weights ~s ~n in
      let tol = 0.02 in
      let monotone = ref true and close = ref true in
      for i = 0 to n - 1 do
        if i < n - 1 && freqs.(i) +. tol < freqs.(i + 1) then
          monotone := false;
        if abs_float (freqs.(i) -. weights.(i)) > tol then close := false
      done;
      !monotone && !close)

let suite =
  [
    Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
    Alcotest.test_case "z-score" `Quick test_z_score;
    Alcotest.test_case "work accounting" `Quick test_work_percent;
    Alcotest.test_case "utilization" `Quick test_utilization;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "series" `Quick test_series;
    Alcotest.test_case "M/G/1" `Quick test_mg1_stability;
    Alcotest.test_case "M/M/1" `Quick test_mg1_exponential_service;
    Alcotest.test_case "bus model monotone" `Quick test_busmodel_monotone;
    Alcotest.test_case "MLIPS paper" `Quick test_mlips_paper_numbers;
    Alcotest.test_case "MLIPS measured" `Quick test_mlips_measured;
    Alcotest.test_case "instruction freq" `Quick test_freq;
    Alcotest.test_case "zipf weights" `Quick test_zipf_weights;
    Alcotest.test_case "zipf determinism" `Quick test_zipf_deterministic;
    QCheck_alcotest.to_alcotest zipf_qcheck;
  ]
