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
   pre-sync consumer can skip events it does not understand.          *)

type op = Read | Write

type t = { pe : int; addr : int; area : Area.t; op : op }

let addr_bits_shift = 14
let max_pe = 255

let pack { pe; addr; area; op } =
  assert (pe >= 0 && pe <= max_pe);
  assert (addr >= 0);
  (addr lsl addr_bits_shift)
  lor (pe lsl 6)
  lor (Area.to_int area lsl 1)
  lor (match op with Write -> 1 | Read -> 0)

let unpack word =
  {
    pe = (word lsr 6) land 0xff;
    addr = word lsr addr_bits_shift;
    area = Area.of_int ((word lsr 1) land 0x1f);
    op = (if word land 1 = 1 then Write else Read);
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

let pack_sync { spe; saddr; kind } =
  assert (spe >= 0 && spe <= max_pe);
  assert (saddr >= 0);
  (saddr lsl addr_bits_shift)
  lor (spe lsl 6)
  lor ((sync_tag_base + sync_kind_to_int kind) lsl 1)

(* Is this packed word a sync event rather than a memory access? *)
let is_sync_word word = (word lsr 1) land 0x1f >= sync_tag_base

let unpack_sync word =
  {
    spe = (word lsr 6) land 0xff;
    saddr = word lsr addr_bits_shift;
    kind = sync_kind_of_int (((word lsr 1) land 0x1f) - sync_tag_base);
  }

type entry = Access of t | Sync of sync

let unpack_entry word =
  if is_sync_word word then Sync (unpack_sync word) else Access (unpack word)
