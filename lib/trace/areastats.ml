(* Aggregate per-area reference statistics.

   One count per slot, a word's low six bits ([Ref_record.slots]): an
   access of area [a] lands in slot [2a] (read) or [2a + 1] (write), a
   sync word in slot [2 * tag] (32-41).  Recording a word is one
   increment; the queries sum slots.  A [Sink.Buffer_sink] keeps the
   same counts for the words it retains ([of_buffer]). *)

type t = int array

let create () = Array.make Ref_record.slots 0

(* The slot is below [Ref_record.slots], so the count needs no bounds
   check. *)
let record t word =
  let slot = word land (Ref_record.slots - 1) in
  Array.unsafe_set t slot (Array.unsafe_get t slot + 1)

let sink t : Sink.t = { Sink.emit_word = (fun w -> record t w) }

let of_buffer = Sink.Buffer_sink.counts

let reads t area = t.(2 * Area.to_int area)
let writes t area = t.((2 * Area.to_int area) + 1)
let refs t area = reads t area + writes t area

(* Sum of every [step]th slot in [lo, hi). *)
let sum t lo hi step =
  let n = ref 0 in
  let i = ref lo in
  while !i < hi do
    n := !n + t.(!i);
    i := !i + step
  done;
  !n

let access_slots = 2 * Area.count
let total t = sum t 0 access_slots 1
let total_reads t = sum t 0 access_slots 2
let total_writes t = sum t 1 access_slots 2
let syncs t = sum t (2 * Ref_record.sync_tag_base) Ref_record.slots 1

(* Data references exclude instruction fetches. *)
let data_refs t = total t - refs t Area.Code

let pp fmt t =
  Format.fprintf fmt "@[<v>%-18s %10s %10s@," "area" "reads" "writes";
  List.iter
    (fun a ->
      let r = reads t a and w = writes t a in
      if r + w > 0 then
        Format.fprintf fmt "%-18s %10d %10d@," (Area.name a) r w)
    Area.all;
  Format.fprintf fmt "%-18s %10d %10d@]" "TOTAL" (total_reads t)
    (total_writes t)
