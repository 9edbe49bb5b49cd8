(* CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.

   The framing layer stamps every trace block and journal frame with a
   CRC so torn writes and flipped bits are detected instead of decoded
   as garbage.  The interface is zlib-style: [string] threads a running
   digest, so chunked and one-shot computation agree. *)

let poly = 0xedb88320

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let mask = 0xffffffff

let feed_byte c b = (c lsr 8) lxor (Lazy.force table).((c lxor b) land 0xff)

let sub ?(crc = 0) s pos len =
  let c = ref (crc lxor mask) in
  for i = pos to pos + len - 1 do
    c := feed_byte !c (Char.code (String.unsafe_get s i))
  done;
  !c lxor mask land mask

let string ?crc s = sub ?crc s 0 (String.length s)
