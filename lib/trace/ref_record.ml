(* Memory-reference records.

   A record is (pe, address, area tag, read/write), packed into one
   OCaml int so multi-hundred-thousand-reference traces stay compact:

     bit 0      : 1 = write
     bits 1-5   : area tag
     bits 6-13  : issuing PE id (up to 255)
     bits 14-.. : word address

   The same packing carries explicit synchronization events (parcall
   publish, goal steal, join, lock acquire/release): areas use tag
   values 0..Area.count-1, sync kinds use 16..20, so a single tag-field
   test ([is_sync_word]) separates the two record families and every
   pre-sync consumer can skip events it does not understand.

   The machine emits packed words directly, built from the layout
   constants below; [pack] and the record type serve the tests and the
   decoding consumers. *)

type op = Read | Write

type t = { pe : int; addr : int; area : Area.t; op : op }

let write_bit = 1
let tag_shift = 1
let tag_mask = 0x1f
let pe_shift = 6
let pe_mask = 0xff
let addr_bits_shift = 14
let max_pe = pe_mask

(* Everything below the PE field: the tag and the write bit. *)
let slots = 1 lsl pe_shift

let pack { pe; addr; area; op } =
  assert (pe >= 0 && pe <= max_pe);
  assert (addr >= 0);
  (addr lsl addr_bits_shift)
  lor (pe lsl pe_shift)
  lor (Area.to_int area lsl tag_shift)
  lor (match op with Write -> write_bit | Read -> 0)

let unpack word =
  {
    pe = (word lsr pe_shift) land pe_mask;
    addr = word lsr addr_bits_shift;
    area = Area.of_int ((word lsr tag_shift) land tag_mask);
    op = (if word land write_bit <> 0 then Write else Read);
  }

(* ---- synchronization events ---- *)

type sync_kind = Acquire | Release | Publish | Steal | Join

type sync = { spe : int; saddr : int; kind : sync_kind }

let sync_tag_base = 16

let sync_kind_to_int = function
  | Acquire -> 0
  | Release -> 1
  | Publish -> 2
  | Steal -> 3
  | Join -> 4

let sync_kind_of_int = function
  | 0 -> Acquire
  | 1 -> Release
  | 2 -> Publish
  | 3 -> Steal
  | 4 -> Join
  | n -> invalid_arg (Printf.sprintf "Ref_record.sync_kind_of_int %d" n)

let sync_tag kind = sync_tag_base + sync_kind_to_int kind

let pack_sync { spe; saddr; kind } =
  assert (spe >= 0 && spe <= max_pe);
  assert (saddr >= 0);
  (saddr lsl addr_bits_shift)
  lor (spe lsl pe_shift)
  lor (sync_tag kind lsl tag_shift)

(* Is this packed word a sync event rather than a memory access? *)
let is_sync_word word = (word lsr tag_shift) land tag_mask >= sync_tag_base

let unpack_sync word =
  {
    spe = (word lsr pe_shift) land pe_mask;
    saddr = word lsr addr_bits_shift;
    kind =
      sync_kind_of_int (((word lsr tag_shift) land tag_mask) - sync_tag_base);
  }

type entry = Access of t | Sync of sync

let unpack_entry word =
  if is_sync_word word then Sync (unpack_sync word) else Access (unpack word)
