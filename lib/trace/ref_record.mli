(** Memory-reference records: (PE, address, area tag, read/write),
    packed into a single OCaml [int] so large traces stay compact. *)

type op = Read | Write

type t = { pe : int; addr : int; area : Area.t; op : op }

val max_pe : int
(** Largest representable PE id (255). *)

val addr_bits_shift : int
(** Bit offset of the address field in the packed word. *)

val pack : t -> int
val unpack : int -> t

(** Explicit synchronization events, interleaved with the accesses in
    the packed stream.  They share the access packing but use tag
    values [sync_tag_base..] (areas stop at {!Area.count}[-1]), so
    {!is_sync_word} separates the two families cheaply and consumers
    that only understand accesses can skip events. *)

type sync_kind =
  | Acquire  (** lock acquired (parcall/goal-stack/message lock word) *)
  | Release  (** lock released *)
  | Publish  (** a parcall or goal frame became visible to other PEs *)
  | Steal    (** a goal frame was taken by another PE *)
  | Join  (** a PE observed a synchronized condition (counter/acks) *)

type sync = { spe : int; saddr : int; kind : sync_kind }

val sync_tag_base : int
(** First tag value used by sync events (16). *)

val pack_sync : sync -> int
val unpack_sync : int -> sync

val is_sync_word : int -> bool
(** Is this packed word a sync event rather than a memory access? *)

type entry = Access of t | Sync of sync

val unpack_entry : int -> entry
