(** Memory-reference records: (PE, address, area tag, read/write),
    packed into a single OCaml [int] so large traces stay compact.

    The packed word is what the machine emits and what every sink
    receives ({!Sink}).  This module owns its layout:

    {v
      bit 0      : 1 = write
      bits 1-5   : tag: an area (Area.to_int, 0..12) or a sync kind (16..20)
      bits 6-13  : issuing PE (0..max_pe)
      bits 14-.. : word address (non-negative)
    v}

    Emitters ([Wam.Memory], [Wam.Exec.fetch_traced]) build words from
    the constants below, and the consumers on measured paths read
    fields back with the same shifts; nothing between the two
    allocates.  The record {!t} is the decoded view, for tests,
    printers and the analyses. *)

type op = Read | Write

type t = { pe : int; addr : int; area : Area.t; op : op }

(** {1 Word layout} *)

val write_bit : int
(** Set in a write's word (1). *)

val tag_shift : int
(** Bit offset of the tag field (1). *)

val tag_mask : int
(** The tag field's mask once shifted down (0x1f). *)

val pe_shift : int
(** Bit offset of the PE field (6). *)

val pe_mask : int
(** The PE field's mask once shifted down (0xff). *)

val max_pe : int
(** Largest representable PE id (255). *)

val addr_bits_shift : int
(** Bit offset of the address field in the packed word. *)

val slots : int
(** Values of a word's low six bits, [tag * 2 + write] (64): what
    kind of word it is.  An access of area [a] lands in slot [2a]
    (read) or [2a + 1] (write), a sync word in slots 32-41.
    {!Areastats} and {!Sink.Buffer_sink} count words by slot. *)

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

val sync_tag : sync_kind -> int
(** The tag field of this kind's words. *)

val pack_sync : sync -> int
val unpack_sync : int -> sync

val is_sync_word : int -> bool
(** Is this packed word a sync event rather than a memory access? *)

type entry = Access of t | Sync of sync

val unpack_entry : int -> entry
