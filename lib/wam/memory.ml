(* The simulated shared memory.

   Word-addressed and backed by fixed 4K-word pages, allocated on the
   first write to them.  Every PE reserves a 4M-word stack set
   ([Layout]), but a served query touches a few hundred words of each
   area and every run starts on a fresh machine, so a run should pay
   for the words it touches, not for its reservation: a page costs
   32 KB to allocate and zero.  A page that was never written reads as
   0 through one shared zero page.  Every [read]/[write] emits a tagged
   reference record to the machine's trace sink; [peek]/[poke] bypass
   tracing (used by answer decoding, debugging and tests). *)

let page_bits = 12
let page_words = 1 lsl page_bits

(* Stands in for every page not yet written; [poke] replaces it
   before storing, so it stays all zeros and domains may share it. *)
let zero_page = Array.make page_words 0

type t = {
  mutable pages : int array array;
  sink : Trace.Sink.t;
}

let create ?(sink = Trace.Sink.null) () =
  { pages = Array.make 1024 zero_page; sink }

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
      let fresh = Array.make page_words 0 in
      t.pages.(idx) <- fresh;
      fresh
    end
    else page
  in
  page.(addr land (page_words - 1)) <- word

let read t ~pe ~area addr =
  t.sink.Trace.Sink.emit
    { Trace.Ref_record.pe; addr; area; op = Trace.Ref_record.Read };
  peek t addr

let write t ~pe ~area addr word =
  t.sink.Trace.Sink.emit
    { Trace.Ref_record.pe; addr; area; op = Trace.Ref_record.Write };
  poke t addr word

(* Record an explicit synchronization event in the trace (no memory
   access is performed; [addr] names the word the edge hangs off). *)
let sync t ~pe ~kind addr =
  t.sink.Trace.Sink.emit_sync
    { Trace.Ref_record.spe = pe; saddr = addr; kind }

(* Generic term-cell access with the area derived from the address. *)
let read_auto t ~pe addr = read t ~pe ~area:(Layout.area_of_addr addr) addr

let write_auto t ~pe addr word =
  write t ~pe ~area:(Layout.area_of_addr addr) addr word
