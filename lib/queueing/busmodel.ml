(* Shared-bus contention model for a two-level organization: N PEs,
   each generating [refs_per_cycle] word references of which the cache
   absorbs [capture] (the complement of the traffic ratio); the rest
   appear on the bus. *)

type t = {
  n_pes : int;
  refs_per_cycle : float; (* per-PE word references per cycle *)
  traffic_ratio : float; (* fraction of references reaching the bus *)
  bus_words_per_cycle : float; (* bus bandwidth, words per cycle *)
}

let make ~n_pes ~refs_per_cycle ~traffic_ratio ~bus_words_per_cycle =
  if n_pes < 1 then invalid_arg "Busmodel.make";
  { n_pes; refs_per_cycle; traffic_ratio; bus_words_per_cycle }

(* Aggregate demand on the bus, words per cycle. *)
let demand t =
  float_of_int t.n_pes *. t.refs_per_cycle *. t.traffic_ratio

let utilization t = demand t /. t.bus_words_per_cycle

let queue t =
  (* one word = one transaction at service time 1/bandwidth cycles *)
  Mg1.make ~lambda:(demand t) ~service:(1.0 /. t.bus_words_per_cycle) ()

(* Efficiency of each PE once bus stalls are charged to it. *)
let pe_efficiency t =
  Mg1.pe_efficiency (queue t)
    ~refs_per_cycle:(t.refs_per_cycle *. t.traffic_ratio)

(* Effective aggregate speed (in PEs' worth of work). *)
let effective_pes t = float_of_int t.n_pes *. pe_efficiency t
