(* Population fitting for Table 3: mean, standard deviation, and
   z-scores of benchmark traffic ratios against the large-benchmark
   population. *)

let mean xs =
  match xs with
  | [] -> invalid_arg "Fit.mean: empty"
  | _ :: _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Population standard deviation (the paper fits against a fixed
   population of large benchmarks). *)
let stddev xs =
  let mu = mean xs in
  let n = float_of_int (List.length xs) in
  sqrt (List.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.0)) 0.0 xs /. n)

(* z-score of [x] against the population: (x - E) / sigma. *)
let z_score ~population x =
  let mu = mean population in
  let sigma = stddev population in
  if sigma = 0.0 then 0.0 else (x -. mu) /. sigma
