(* The simulated shared memory.

   Word-addressed and backed by fixed 4K-word pages, allocated on the
   first write to them.  Every PE reserves a 4M-word stack set
   ([Layout]), but a served query touches a few hundred words of each
   area, so a run should pay for the words it touches, not for its
   reservation: a page costs 32 KB to allocate and zero.  A page that
   was never written reads as 0 through one shared zero page.  A
   memory records the pages it has written, so [clear] can zero just
   those, each only below the bound its caller knows (the high-water
   mark of the area the page lies in), and keep them as spares: a
   machine that is released and created again ([Machine.release])
   reuses its directory and pages instead of allocating new ones.
   Every [read]/[write] emits one packed word to the machine's trace
   sink, built here in [Trace.Ref_record]'s layout (no record is
   allocated), and [sync] emits a sync word the same way;
   [peek]/[poke] bypass tracing (used by answer decoding, debugging
   and tests).  The PE field's bound is
   [Machine.create]'s, so it is not checked per reference; the
   address's sign is, on every sink. *)

let page_bits = 12
let page_words = 1 lsl page_bits

(* Stands in for every page not yet written; [poke] replaces it
   before storing, so it stays all zeros and domains may share it. *)
let zero_page = Array.make page_words 0

type t = {
  mutable pages : int array array;
  mutable written : int list; (* indices of the pages written, newest first *)
  mutable spare : int array list; (* zeroed pages for the next first writes *)
  sink : Trace.Sink.t;
}

(* Zeroed pages a cleared memory keeps (2 MB): a served miss writes 4
   pages on one PE and at most 40 on 8 (300 serve-churn pool queries);
   a run that wrote more gives the rest to the collector unzeroed. *)
let max_spare = 64

let create ?(sink = Trace.Sink.null) ?reuse () =
  match reuse with
  | None -> { pages = Array.make 1024 zero_page; written = []; spare = []; sink }
  | Some old -> { pages = old.pages; written = []; spare = old.spare; sink }

(* A run writes a few hundred words of each page it touches, so a
   page is zeroed only below the bound [limit] gives for it. *)
let clear t ~limit =
  let rec detach kept = function
    | [] -> ()
    | idx :: rest ->
      let page = t.pages.(idx) in
      t.pages.(idx) <- zero_page;
      if kept < max_spare then begin
        let base = idx lsl page_bits in
        let words = min (limit base - base) page_words in
        if words > 0 then Array.fill page 0 words 0;
        t.spare <- page :: t.spare
      end;
      detach (kept + 1) rest
  in
  detach (List.length t.spare) t.written;
  t.written <- []

let peek t addr =
  let idx = addr lsr page_bits in
  if idx < Array.length t.pages then t.pages.(idx).(addr land (page_words - 1))
  else 0

let poke t addr word =
  let idx = addr lsr page_bits in
  if idx >= Array.length t.pages then begin
    let bigger =
      Array.make (max (idx + 1) (2 * Array.length t.pages)) zero_page
    in
    Array.blit t.pages 0 bigger 0 (Array.length t.pages);
    t.pages <- bigger
  end;
  let page = t.pages.(idx) in
  let page =
    if page == zero_page then begin
      let fresh =
        match t.spare with
        | p :: rest ->
          t.spare <- rest;
          p
        | [] -> Array.make page_words 0
      in
      t.pages.(idx) <- fresh;
      t.written <- idx :: t.written;
      fresh
    end
    else page
  in
  page.(addr land (page_words - 1)) <- word

module R = Trace.Ref_record

let negative_address addr =
  invalid_arg (Printf.sprintf "Memory: negative address %d" addr)

let read t ~pe ~area addr =
  if addr < 0 then negative_address addr;
  t.sink.Trace.Sink.emit_word
    ((addr lsl R.addr_bits_shift)
    lor (pe lsl R.pe_shift)
    lor (Trace.Area.to_int area lsl R.tag_shift));
  peek t addr

let write t ~pe ~area addr word =
  if addr < 0 then negative_address addr;
  t.sink.Trace.Sink.emit_word
    ((addr lsl R.addr_bits_shift)
    lor (pe lsl R.pe_shift)
    lor (Trace.Area.to_int area lsl R.tag_shift)
    lor R.write_bit);
  poke t addr word

(* Record an explicit synchronization event in the trace (no memory
   access is performed; [addr] names the word the edge hangs off). *)
let sync t ~pe ~kind addr =
  if addr < 0 then negative_address addr;
  t.sink.Trace.Sink.emit_word
    ((addr lsl R.addr_bits_shift)
    lor (pe lsl R.pe_shift)
    lor (R.sync_tag kind lsl R.tag_shift))

(* Generic term-cell access with the area derived from the address. *)
let write_auto t ~pe addr word =
  write t ~pe ~area:(Layout.area_of_addr addr) addr word
