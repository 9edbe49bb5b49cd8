(** Coherency protocols and simulation configuration (paper, §3.1). *)

type kind =
  | Write_through
      (** the historical scheme: every write goes to memory; remote
          copies invalidate by snooping, at no extra bus cost *)
  | Write_in_broadcast
      (** invalidation-based broadcast caches: private lines copy
          back; a write to a shared line broadcasts an invalidation *)
  | Write_through_broadcast
      (** update-based broadcast caches: a write to a shared line
          broadcasts the word; private lines copy back *)
  | Hybrid
      (** the paper's firmware-controlled scheme: the reference's
          locality tag decides -- Global data writes through, Local
          data copies back *)
  | Copyback
      (** plain write-back with no coherency actions (uniprocessor
          studies and the paper's "copyback" yardstick) *)

val kind_name : kind -> string
val all_kinds : kind list

type config = {
  kind : kind;
  cache_words : int;  (** per-PE cache size, in words *)
  line_words : int;  (** words per line (paper: 4) *)
  write_allocate : bool;  (** fetch the line on a write miss? *)
}

val make :
  ?line_words:int -> ?write_allocate:bool -> kind:kind -> cache_words:int ->
  unit -> config
(** @raise Invalid_argument unless both sizes are positive, the line
    size is a power of two and the cache size a multiple of it. *)

val line_bits : int -> int
(** [line_bits w] is log2 of a line of [w] words: a word address
    shifted right by it is the line address.
    @raise Invalid_argument unless [w] is a power of two. *)

val paper_allocate_policy : kind:kind -> cache_words:int -> bool
(** The paper's Figure 4 policy rule: no-write-allocate for small
    caches (and 512 words for hybrid), write-allocate above. *)
