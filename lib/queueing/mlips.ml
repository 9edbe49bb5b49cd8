(* The Section 3.3 back-of-the-envelope: application inference speed
   versus memory bandwidth.

   The paper's instance: 15 WAM instructions per application
   inference, 3 word references per instruction, 32-bit words, caches
   capturing 70% of the traffic: 2 MLIPS -> 360 MB/s processor demand
   -> 108 MB/s on the bus, feasible with late-80s technology. *)

type t = {
  instr_per_inference : float; (* paper: 15 *)
  refs_per_instruction : float; (* paper: 3 *)
  word_bytes : int; (* paper: 4 *)
  capture : float; (* fraction absorbed by caches; paper: 0.70 *)
}

let paper_assumptions =
  {
    instr_per_inference = 15.0;
    refs_per_instruction = 3.0;
    word_bytes = 4;
    capture = 0.70;
  }

(* Build the assumptions from measured statistics: refs/instruction
   from a RAP-WAM run and capture = 1 - traffic ratio from the cache
   simulation. *)
let of_measurements ~instr_per_inference ~refs_per_instruction
    ~traffic_ratio () =
  {
    instr_per_inference;
    refs_per_instruction;
    word_bytes = 4;
    capture = 1.0 -. traffic_ratio;
  }

let bytes_per_inference t =
  t.instr_per_inference *. t.refs_per_instruction *. float_of_int t.word_bytes

(* Raw processor-side bandwidth demand for [lips] inferences/sec. *)
let processor_bandwidth t ~lips = lips *. bytes_per_inference t

(* Bus/memory bandwidth needed once caches capture their share. *)
let bus_bandwidth t ~lips = processor_bandwidth t ~lips *. (1.0 -. t.capture)

let pp fmt t =
  let lips = 2.0e6 in
  Format.fprintf fmt
    "@[<v>assumptions: %.1f instr/inference, %.2f refs/instr, %d-byte \
     words, %.0f%% capture@,\
     bytes/inference:        %.0f@,\
     2 MLIPS processor side: %.1f MB/s@,\
     2 MLIPS bus side:       %.1f MB/s@]"
    t.instr_per_inference t.refs_per_instruction t.word_bytes
    (100.0 *. t.capture)
    (bytes_per_inference t)
    (processor_bandwidth t ~lips /. 1.0e6)
    (bus_bandwidth t ~lips /. 1.0e6)
