(* Coherency protocols and simulation configuration (paper, §3.1).

   Write_through       the historical scheme: every write goes to
                       memory (one word); remote copies invalidate by
                       snooping the write, at no extra bus cost.
   Write_in_broadcast  invalidation-based broadcast caches: private
                       lines are copied back; a write to a shared line
                       broadcasts a one-word invalidation.
   Write_through_broadcast
                       update-based broadcast caches: a write to a
                       shared line broadcasts the word to the other
                       holders and memory; private lines are copied
                       back.
   Hybrid              the paper's firmware-controlled scheme: the
                       reference's locality tag (Table 1) decides --
                       Global data is written through (keeping memory
                       consistent), Local data is copied back.
   Copyback            plain write-back cache with no coherency
                       actions; used for uniprocessor (sequential)
                       locality studies and as the paper's "copyback"
                       yardstick. *)

type kind =
  | Write_through
  | Write_in_broadcast
  | Write_through_broadcast
  | Hybrid
  | Copyback

let kind_name = function
  | Write_through -> "write-through"
  | Write_in_broadcast -> "write-in broadcast"
  | Write_through_broadcast -> "write-through broadcast"
  | Hybrid -> "hybrid"
  | Copyback -> "copyback"

let all_kinds =
  [ Write_through; Write_in_broadcast; Write_through_broadcast; Hybrid;
    Copyback ]

type config = {
  kind : kind;
  cache_words : int; (* per-PE cache size, in words *)
  line_words : int; (* words per line (paper: 4) *)
  write_allocate : bool; (* fetch the line on a write miss? *)
}

(* A line address is a word address shifted right by [line_bits]. *)
let line_bits line_words =
  if line_words <= 0 || line_words land (line_words - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "line size %d is not a power of two" line_words);
  let rec log2 n k = if n = 1 then k else log2 (n lsr 1) (k + 1) in
  log2 line_words 0

let make ?(line_words = 4) ?(write_allocate = true) ~kind ~cache_words () =
  if cache_words <= 0 || line_words <= 0 then
    invalid_arg "Protocol.make: sizes must be positive";
  ignore (line_bits line_words);
  if cache_words mod line_words <> 0 then
    invalid_arg "Protocol.make: cache size must be a multiple of line size";
  { kind; cache_words; line_words; write_allocate }

(* The paper's policy rule for Figure 4: no-write-allocate is best for
   small caches (64..256 words, plus 512 for hybrid); write-allocate
   above. *)
let paper_allocate_policy ~kind ~cache_words =
  match kind with
  | Hybrid -> cache_words > 512
  | Write_through | Write_in_broadcast | Write_through_broadcast | Copyback
    ->
    cache_words > 256
