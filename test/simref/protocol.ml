(* The library's protocol configuration, under the name the
   reference [Multi] uses. *)

include Cachesim.Protocol
