(** The fixed operator table of the reader and printer: the standard
    Prolog operators plus the &-Prolog extensions used by RAP-WAM
    sources: ['&'] (parallel conjunction, binding tighter than [','] as
    in &-Prolog/Ciao), ['|'] / ['=>'] for conditional graph
    expressions, and [mode] for declarations. *)

type assoc = Xfx | Xfy | Yfx
type pre_assoc = Fy | Fx

val lookup_infix : string -> (int * assoc) option
(** Priority and associativity of an infix operator. *)

val lookup_prefix : string -> (int * pre_assoc) option
(** Priority and associativity of a prefix operator. *)

val arg_prios : int -> assoc -> int * int
(** [arg_prios prio assoc] is the maximum priority allowed for the
    (left, right) arguments of an infix operator. *)
