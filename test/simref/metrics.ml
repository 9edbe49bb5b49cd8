(* The library's counters, under the name the reference [Multi]
   uses, so both simulators fill the same [Metrics.t]. *)

include Cachesim.Metrics
