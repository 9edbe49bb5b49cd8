(* Latency samples with percentile readout. *)

type t = { mutable samples : float array; mutable n : int }

let create () = { samples = Array.make 1024 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.samples then begin
    let bigger = Array.make (2 * t.n) 0.0 in
    Array.blit t.samples 0 bigger 0 t.n;
    t.samples <- bigger
  end;
  t.samples.(t.n) <- x;
  t.n <- t.n + 1

let of_samples xs =
  let t = create () in
  List.iter (add t) xs;
  t

let mean t =
  if t.n = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to t.n - 1 do
      acc := !acc +. t.samples.(i)
    done;
    !acc /. float_of_int t.n
  end

let percentile t p =
  if t.n = 0 then 0.0
  else begin
    let a = Array.sub t.samples 0 t.n in
    Array.sort compare a;
    let rank =
      int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) - 1
    in
    a.(max 0 (min (t.n - 1) rank))
  end

type summary = {
  n : int;
  mean_s : float;
  p50_s : float;
  p95_s : float;
  p99_s : float;
  max_s : float;
}

let summary (t : t) =
  {
    n = t.n;
    mean_s = mean t;
    p50_s = percentile t 50.0;
    p95_s = percentile t 95.0;
    p99_s = percentile t 99.0;
    max_s = percentile t 100.0;
  }

let mean_and_cs2 (t : t) =
  if t.n = 0 then (0.0, 0.0)
  else begin
    let m = mean t in
    let acc = ref 0.0 in
    for i = 0 to t.n - 1 do
      let d = t.samples.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    let var = !acc /. float_of_int t.n in
    if m = 0.0 then (0.0, 0.0) else (m, var /. (m *. m))
  end
