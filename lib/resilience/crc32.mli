(** CRC-32 (IEEE 802.3 / zlib polynomial) over strings and bytes.

    zlib-style chaining: [string ~crc:(string s1) s2] equals
    [string (s1 ^ s2)], and [string "123456789" = 0xCBF43926]. *)

val string : ?crc:int -> string -> int
val sub : ?crc:int -> string -> int -> int -> int
