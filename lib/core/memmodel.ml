(* Integrated two-level memory timing.

   The paper first simulates RAP-WAM under an ideal memory, then feeds
   the traces to cache simulators; the analytic bus model estimates the
   time penalty afterwards.  This module closes the loop inside the
   scheduler: each PE owns a coherent cache, every traced reference is
   looked up as it happens, and misses occupy the (serializing) shared
   bus -- so a stalled PE really executes fewer instructions per cycle,
   idle PEs steal differently, and the simulated rounds become a
   contention-aware time estimate.

   Timing rules (in scheduler rounds = processor cycles):
     hit            free
     bus transfer   [words / bus_words_per_cycle] cycles, serialized on
                    the bus (FIFO), plus [mem_latency] for line fills
   A PE waits only for its READ transactions (a write buffer hides
   write latency, as in the machines the paper considers); write
   traffic still occupies the bus and delays everyone's reads. *)

type t = {
  multi : Cachesim.Multi.t; (* coherent caches + traffic accounting *)
  config : Cachesim.Protocol.config;
  bus_words_per_cycle : float;
  mem_latency : int;
  mutable bus_free_at : float; (* cycle when the bus is next free *)
  ready_at : float array; (* per-PE: cycle when its memory settles *)
  mutable now : float; (* mirror of the scheduler round *)
  stall_cycles : float array; (* per-PE accumulated stalls *)
}

let create ?(bus_words_per_cycle = 1.0) ?(mem_latency = 2) ~n_pes config =
  {
    multi = Cachesim.Multi.create ~n_pes config;
    config;
    bus_words_per_cycle;
    mem_latency;
    bus_free_at = 0.0;
    ready_at = Array.make n_pes 0.0;
    now = 0.0;
    stall_cycles = Array.make n_pes 0.0;
  }

let set_now t round = t.now <- float_of_int round

(* Feed one packed word through the cache; charge any new bus words
   to the issuing PE through the serialized bus.  A sync word carries
   no traffic: [Multi.reference] skips it, so no bus word is new. *)
let reference t word =
  let stats = Cachesim.Multi.stats t.multi in
  let before = stats.Cachesim.Metrics.bus_words in
  Cachesim.Multi.reference t.multi word;
  let words = stats.Cachesim.Metrics.bus_words - before in
  if words > 0 then begin
    let pe =
      (word lsr Trace.Ref_record.pe_shift) land Trace.Ref_record.pe_mask
    in
    let start = Float.max t.now (Float.max t.bus_free_at t.ready_at.(pe)) in
    let transfer = float_of_int words /. t.bus_words_per_cycle in
    let finish = start +. transfer in
    t.bus_free_at <- finish;
    (* a read stalls its PE until the line arrives; a write is
       buffered: the PE keeps running while the bus stays busy *)
    if word land Trace.Ref_record.write_bit = 0 then begin
      t.ready_at.(pe) <- finish +. float_of_int t.mem_latency;
      t.stall_cycles.(pe) <-
        t.stall_cycles.(pe) +. (t.ready_at.(pe) -. t.now)
    end
  end

let sink t : Trace.Sink.t =
  { Trace.Sink.emit_word = (fun w -> reference t w) }

(* Is this PE still waiting for memory at the current round? *)
let stalled t pe = t.ready_at.(pe) > t.now +. 0.5

let stats t = Cachesim.Multi.stats t.multi
let total_stalls t = Array.fold_left ( +. ) 0.0 t.stall_cycles
