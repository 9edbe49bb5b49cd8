(* Execution-time estimation for the two-level organization.

   The paper measures traffic ratio and defers the time penalty of
   shared-memory contention to a queueing model (Section 3.3, via
   Tick's thesis).  This module combines the three ingredients this
   repository produces --

     rounds      simulated time of the interleaved RAP-WAM run
                 (one instruction per busy PE per round)
     cache stats the per-protocol bus words for the run's trace
     bus model   an M/D/1 queue for the shared bus

   -- into an estimated cycle count and an effective speedup.  With
   total time T, bus words B, per-word service S and n PEs:

     rho(T)   = B * S / T                     (bus utilization)
     R(T)     = S + rho*S / (2*(1 - rho))     (M/D/1 response)
     T        = rounds*cpi + (B/n) * (R(T) + miss_penalty)

   The right-hand side decreases in T, so the unique fixed point is
   found by bisection.  Each PE is charged its share of the bus
   traffic at the contended response time; CPI abstracts the
   processor pipeline. *)

type estimate = {
  cycles : float; (* estimated execution time, cycles *)
  ideal_cycles : float; (* without memory stalls *)
  bus_utilization : float;
  memory_efficiency : float; (* ideal / estimated *)
  stall_cycles : float;
}

let cpi = 4.0
let bus_words_per_cycle = 1.0
let miss_penalty = 2.0
(* fixed latency added per bus word on top of queueing (memory access) *)

let estimate ~rounds ~n_pes (stats : Metrics.t) =
  let bus_words = float_of_int stats.Metrics.bus_words in
  let ideal = float_of_int (max rounds 1) *. cpi in
  let service = 1.0 /. bus_words_per_cycle in
  let per_pe = bus_words /. float_of_int (max n_pes 1) in
  let response t =
    let rho = bus_words *. service /. t in
    if rho >= 1.0 then infinity
    else service +. (rho *. service /. (2.0 *. (1.0 -. rho)))
  in
  let rhs t = ideal +. (per_pe *. (response t +. miss_penalty)) in
  (* bisection: lo just above bus saturation, hi safely past the root *)
  let lo = ref (max ideal (bus_words *. service *. 1.0001)) in
  let hi = ref (max (2.0 *. !lo) (rhs (max ideal (bus_words *. service *. 2.0)))) in
  while rhs !hi > !hi do
    hi := 2.0 *. !hi
  done;
  for _ = 1 to 80 do
    let mid = 0.5 *. (!lo +. !hi) in
    if rhs mid > mid then lo := mid else hi := mid
  done;
  let cycles = !hi in
  let rho = bus_words *. service /. cycles in
  {
    cycles;
    ideal_cycles = ideal;
    bus_utilization = rho;
    memory_efficiency = (if cycles > 0.0 then ideal /. cycles else 1.0);
    stall_cycles = cycles -. ideal;
  }

(* Effective speedup of a parallel run over a sequential baseline when
   both pay for their memory systems. *)
let effective_speedup ~seq ~par = seq.cycles /. par.cycles
