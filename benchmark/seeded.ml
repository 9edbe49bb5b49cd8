(* Workload inputs derived from --seed.

   Seed 0 is the repository's paper-scale set
   ([Benchlib.Inputs.default_benchmarks]; the reduced set under
   --smoke).  Any other seed draws new values from the
   [Benchlib.Inputs] generators at the same sizes.  Because the
   benchmark compares runs made with different seeds, every seeded
   input is also cost-matched to its seed-0 counterpart: the generator
   is re-drawn (from candidate seeds derived from --seed) until a
   plain-OCaml cost model of the input lands within a small tolerance
   of the seed-0 input's cost.  tak has no random input and stays
   fixed.  The cost models never run the engine, so a change to the
   system cannot change which inputs a seed selects. *)

module I = Benchlib.Inputs

type scale = { depth : int; iterations : int; qsort_n : int; matrix_n : int; tak : int * int * int }

let paper = { depth = 8; iterations = 10; qsort_n = 900; matrix_n = 15; tak = (12, 7, 3) }
let smoke = { depth = 5; iterations = 3; qsort_n = 80; matrix_n = 6; tak = (10, 6, 2) }

(* The seeds [Benchlib.Inputs] uses for the seed-0 deriv and qsort
   inputs. *)
let deriv_seed0 = 42
let qsort_seed0 = 7

(* The cost models are linear in features of the input, with the
   weights the sequential WAM spends per feature (its reference count
   is exactly linear in them; at 8 PEs scheduling adds under 1%).
   d/3 visits every node of the expression once and builds a result
   whose size depends on the operator. *)
let deriv_cost expr =
  let n = String.length expr in
  let cost = ref 0 in
  let at i s = i + String.length s <= n && String.sub expr i (String.length s) = s in
  for i = 0 to n - 1 do
    cost :=
      !cost
      +
      match expr.[i] with
      | '+' | '-' -> 63
      | '*' -> 97
      | '/' -> 133
      | '^' -> 147
      | 'e' when at i "exp(" -> 91
      | 'l' when at i "log(" -> 79
      | 'x' when not (i > 0 && expr.[i - 1] = 'e') -> 110
      | '0' .. '9' when not (i > 1 && expr.[i - 2] = '^') -> 138
      | _ -> 0
  done;
  !cost

(* The program's quicksort partitions the rest of each list around
   its head: an element that stays left passes [X =< Y] and cuts, one
   that goes right fails the test and backtracks into the third
   clause. *)
let rec qsort_cost = function
  | [] -> 0
  | x :: rest ->
    let left, right = List.partition (fun y -> y <= x) rest in
    (39 * List.length left) + (70 * List.length right) + qsort_cost left + qsort_cost right

let derived ~seed ~salt k = (seed * 1_000_003) + (salt * 7919) + (k * 104_729) + 1

(* The first candidate seed (derived from [seed] and [salt]) whose
   input costs within [tol] of [target]. *)
let matched ~seed ~salt ~target ~tol cost_of =
  let slack = max 1 (int_of_float (tol *. float_of_int target)) in
  let rec go k =
    let candidate = derived ~seed ~salt k in
    if abs (cost_of candidate - target) <= slack || k >= 100_000 then candidate
    else go (k + 1)
  in
  go 0

let deriv_expr ~depth seed = I.deriv_expr (I.lcg seed) depth

let benchmarks ~smoke:is_smoke ~seed =
  let s = if is_smoke then smoke else paper in
  let x, y, z = s.tak in
  let tak_query = I.tak_query ~x ~y ~z () in
  let deriv_query, qsort_query, matrix_query =
    if seed = 0 then
      ( I.deriv_query ~depth:s.depth ~iterations:s.iterations (),
        I.qsort_query ~n:s.qsort_n (),
        I.matrix_query ~n:s.matrix_n () )
    else
      let dseed =
        matched ~seed ~salt:1 ~tol:0.002
          ~target:(deriv_cost (deriv_expr ~depth:s.depth deriv_seed0))
          (fun c -> deriv_cost (deriv_expr ~depth:s.depth c))
      in
      let list seed = I.random_list ~n:s.qsort_n ~seed ~bound:10000 in
      let qseed =
        matched ~seed ~salt:2 ~tol:0.001
          ~target:(qsort_cost (list qsort_seed0))
          (fun c -> qsort_cost (list c))
      in
      ( I.deriv_query ~depth:s.depth ~iterations:s.iterations ~seed:dseed (),
        I.qsort_query ~n:s.qsort_n ~seed:qseed (),
        I.matrix_query ~n:s.matrix_n ~seed:(derived ~seed ~salt:3 0) () )
  in
  let b name src query answer_var = { Benchlib.Programs.name; src; query; answer_var } in
  [
    b "deriv" Benchlib.Programs.deriv deriv_query "";
    b "tak" Benchlib.Programs.tak tak_query "A";
    b "qsort" Benchlib.Programs.qsort qsort_query "S";
    b "matrix" Benchlib.Programs.matrix matrix_query "C";
  ]
