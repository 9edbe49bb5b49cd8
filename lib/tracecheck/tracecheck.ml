(* Happens-before race detector and coherence-invariant sanitizer over
   tagged RAP-WAM memory traces.

   The emulator interleaves explicit synchronization events with the
   memory accesses (Trace.Ref_record.sync): lock Acquire/Release on the
   parcall-count, goal-stack and message lock words, Publish when a
   parcall/goal frame becomes visible, Steal when a goal frame changes
   hands, and Join when a parent observes a synchronized condition
   (counter or acks drained to zero).  This pass replays the stream
   once, maintaining one vector clock per PE plus a released-clock per
   synchronization address, and checks per word address:

     race               no two PEs make conflicting accesses (at least
                        one a write) unordered by happens-before
     tag-locality       a synchronized cross-PE conflict only touches
                        addresses whose remote accesses carry a
                        Global-locality area tag (Table 1): the hybrid
                        protocol writes those through, so remote
                        readers see them -- a Local tag here means a
                        stale-cache bug in a real machine
     read-before-write  no word is read before its first write
                        (instruction fetches and the boot-initialized
                        goal-stack/message control words excepted)
     area-bounds        the area tag of every access agrees with the
                        address's region in the memory layout
     stale-trail        the selective-unwind pattern (a Trail read
                        immediately followed by the reset write on the
                        same PE) only resets words that were actually
                        written, i.e. trail entries reference
                        previously written heap/stack words

   Cost: one pass over the packed words; O(n_pes) ints of shadow state
   per distinct address in the worst case (reads from a single PE stay
   in a compact epoch until a concurrent reader inflates them). *)

module R = Trace.Ref_record

type violation = {
  rule : string;
  pe : int;
  other_pe : int; (* the conflicting PE, or -1 *)
  addr : int;
  area : Trace.Area.t option;
  message : string;
}

let pp_violation fmt v =
  Format.fprintf fmt "%s: PE%d%s @%d%s: %s" v.rule v.pe
    (if v.other_pe >= 0 then Printf.sprintf " vs PE%d" v.other_pe else "")
    v.addr
    (match v.area with
    | Some a -> Printf.sprintf " (%s)" (Trace.Area.name a)
    | None -> "")
    v.message

type summary = {
  violations : violation list; (* first [max_violations], in order *)
  n_violations : int; (* total found (deduplicated per rule+addr) *)
  accesses : int;
  syncs : int;
  distinct_addrs : int;
  n_pes : int;
}

(* ------------------------------------------------------------------ *)
(* Shadow state.                                                      *)

(* Per-address shadow word: the first (creating) and last write as
   epochs (pe, clock, area tag) and the reads either as one epoch or,
   once a second PE reads concurrently, as a clock-per-PE vector. *)
type shadow = {
  mutable f_pe : int; (* first write: -1 = never written *)
  mutable f_clk : int;
  mutable w_pe : int; (* last write: -1 = never written *)
  mutable w_clk : int;
  mutable w_area : int;
  mutable r_pe : int; (* -1 = no reads; -2 = vector mode *)
  mutable r_clk : int;
  mutable r_area : int;
  mutable rvec : int array; (* vector mode: last read clock per PE *)
}

let max_pes = R.max_pe + 1

type t = {
  clocks : int array array; (* vector clock per PE *)
  sync_clocks : (int, int array) Hashtbl.t; (* released clock per addr *)
  shadows : (int, shadow) Hashtbl.t;
  pending_trail : int array; (* per-PE: -1, or "just read the trail" *)
  dedup : (string * int, unit) Hashtbl.t;
  mutable violations : violation list; (* reversed *)
  max_violations : int;
  mutable n_violations : int;
  mutable accesses : int;
  mutable syncs : int;
  mutable n_pes : int;
}

let create ?(max_violations = 50) () =
  let clocks = Array.make_matrix max_pes max_pes 0 in
  (* each PE's own component starts at 1 so that the implicit boot
     writes (epoch 0) happen-before everything *)
  for pe = 0 to max_pes - 1 do
    clocks.(pe).(pe) <- 1
  done;
  {
    clocks;
    sync_clocks = Hashtbl.create 256;
    shadows = Hashtbl.create 65536;
    pending_trail = Array.make max_pes (-1);
    dedup = Hashtbl.create 64;
    violations = [];
    max_violations;
    n_violations = 0;
    accesses = 0;
    syncs = 0;
    n_pes = 0;
  }

let report t ~rule ~pe ?(other_pe = -1) ~addr ?area fmt =
  Printf.ksprintf
    (fun message ->
      if not (Hashtbl.mem t.dedup (rule, addr)) then begin
        Hashtbl.add t.dedup (rule, addr) ();
        t.n_violations <- t.n_violations + 1;
        if t.n_violations <= t.max_violations then
          t.violations <-
            { rule; pe; other_pe; addr; area; message } :: t.violations
      end)
    fmt

(* ------------------------------------------------------------------ *)
(* Layout rules.                                                      *)

(* The goal-stack and message-buffer control words (lock, top/bottom
   and head/tail pointers) are initialized by the boot protocol, not
   by traced writes: the first traced access may legitimately be a
   read (e.g. probing an untouched lock). *)
let is_boot_word addr =
  addr < Wam.Layout.code_base
  &&
  let pe = Wam.Layout.pe_of_addr addr in
  let goal_rel = addr - Wam.Layout.goal_base pe in
  let msg_rel = addr - Wam.Layout.msg_base pe in
  (goal_rel >= 0 && goal_rel <= 2) || (msg_rel >= 0 && msg_rel <= 2)

(* Which areas may tag an access at this address, per the layout. *)
let area_allowed addr (area : Trace.Area.t) =
  if addr >= Wam.Layout.code_base then area = Trace.Area.Code
  else begin
    let off = Wam.Layout.offset_of_addr addr in
    if off < Wam.Layout.local_size + Wam.Layout.heap_size then
      if off < Wam.Layout.heap_size then area = Trace.Area.Heap
      else
        match area with
        | Trace.Area.Env_control | Trace.Area.Env_pvar
        | Trace.Area.Parcall_local | Trace.Area.Parcall_global
        | Trace.Area.Parcall_count ->
          true
        | _ -> false
    else begin
      let control_off = Wam.Layout.heap_size + Wam.Layout.local_size in
      let trail_off = control_off + Wam.Layout.control_size in
      let pdl_off = trail_off + Wam.Layout.trail_size in
      let goal_off = pdl_off + Wam.Layout.pdl_size in
      let msg_off = goal_off + Wam.Layout.goal_size in
      if off < trail_off then
        match area with
        | Trace.Area.Choice_point | Trace.Area.Marker -> true
        | _ -> false
      else if off < pdl_off then area = Trace.Area.Trail
      else if off < goal_off then area = Trace.Area.Pdl
      else if off < msg_off then area = Trace.Area.Goal_frame
      else area = Trace.Area.Message
    end
  end

let is_local_locality area_i =
  Trace.Area.locality (Trace.Area.of_int area_i) = Trace.Area.Local

(* ------------------------------------------------------------------ *)
(* Vector-clock plumbing.                                             *)

let note_pe t pe = if pe >= t.n_pes then t.n_pes <- pe + 1

(* hb: did (epoch_pe, epoch_clk) happen before the current point of
   [pe]?  Same-PE epochs are always ordered (program order). *)
let hb t ~pe ~epoch_pe ~epoch_clk =
  epoch_pe = pe || t.clocks.(pe).(epoch_pe) >= epoch_clk

(* Release/Publish: fold the PE's clock into the address's released
   clock (accumulating, so a Join sees every past release), then tick. *)
let sync_release t pe addr =
  let vc = t.clocks.(pe) in
  (match Hashtbl.find_opt t.sync_clocks addr with
  | None -> Hashtbl.replace t.sync_clocks addr (Array.sub vc 0 t.n_pes)
  | Some c ->
    let lc = Array.length c in
    if lc < t.n_pes then begin
      let c' = Array.make t.n_pes 0 in
      Array.blit c 0 c' 0 lc;
      for i = 0 to t.n_pes - 1 do
        c'.(i) <- max c'.(i) vc.(i)
      done;
      Hashtbl.replace t.sync_clocks addr c'
    end
    else
      for i = 0 to lc - 1 do
        c.(i) <- max c.(i) vc.(i)
      done);
  vc.(pe) <- vc.(pe) + 1

(* Acquire/Steal/Join: join the address's released clock into the PE's
   clock.  An address never released joins nothing. *)
let sync_acquire t pe addr =
  match Hashtbl.find_opt t.sync_clocks addr with
  | None -> ()
  | Some c ->
    let vc = t.clocks.(pe) in
    for i = 0 to Array.length c - 1 do
      if c.(i) > vc.(i) then vc.(i) <- c.(i)
    done

(* ------------------------------------------------------------------ *)
(* The per-access checks.                                             *)

let shadow_of t addr =
  match Hashtbl.find_opt t.shadows addr with
  | Some s -> s
  | None ->
    let s =
      {
        f_pe = -1;
        f_clk = 0;
        w_pe = -1;
        w_clk = 0;
        w_area = 0;
        r_pe = -1;
        r_clk = 0;
        r_area = 0;
        rvec = [||];
      }
    in
    Hashtbl.add t.shadows addr s;
    s

(* A synchronized cross-PE conflict: every endpoint on a PE other than
   the address's owner must carry a Global-locality tag, or the hybrid
   protocol would have cached it locally and the remote side would see
   a stale word. *)
let check_tags t ~addr ~pe ~area_i ~other_pe ~other_area_i =
  let owner = Wam.Layout.pe_of_addr addr in
  if pe <> owner && is_local_locality area_i then
    report t ~rule:"tag-locality" ~pe ~other_pe ~addr
      ~area:(Trace.Area.of_int area_i)
      "cross-PE conflict through a Local-tagged access by a non-owner \
       (hybrid protocol would serve it from a stale cache)"
  else if other_pe <> owner && is_local_locality other_area_i then
    report t ~rule:"tag-locality" ~pe:other_pe ~other_pe:pe ~addr
      ~area:(Trace.Area.of_int other_area_i)
      "cross-PE conflict through a Local-tagged access by a non-owner \
       (hybrid protocol would serve it from a stale cache)"

let access t (r : R.t) =
  t.accesses <- t.accesses + 1;
  let pe = r.pe and addr = r.addr and area = r.area in
  note_pe t pe;
  let area_i = Trace.Area.to_int area in
  if not (area_allowed addr area) then
    report t ~rule:"area-bounds" ~pe ~addr ~area
      "area tag disagrees with the address's layout region";
  if area <> Trace.Area.Code then begin
    let s = shadow_of t addr in
    let clk = t.clocks.(pe).(pe) in
    (* stale-trail: the reset write that follows a Trail read must
       target a word that was written at some point *)
    (if t.pending_trail.(pe) >= 0 then begin
       t.pending_trail.(pe) <- -1;
       if r.op = R.Write && area <> Trace.Area.Trail && s.w_pe = -1
          && not (is_boot_word addr)
       then
         report t ~rule:"stale-trail" ~pe ~addr ~area
           "trail entry reset a word that was never written"
     end);
    if r.op = R.Read && area = Trace.Area.Trail then
      t.pending_trail.(pe) <- addr;
    match r.op with
    | R.Read ->
      if s.w_pe = -1 then begin
        if not (is_boot_word addr) then
          report t ~rule:"read-before-write" ~pe ~addr ~area
            "word read before its first write"
      end
      else if s.w_pe <> pe then begin
        if not (hb t ~pe ~epoch_pe:s.w_pe ~epoch_clk:s.w_clk) then begin
          (* Unordered read/write conflict.  On Global (write-through)
             words this is the single-assignment binding race the
             protocol is designed for -- a deref can race with the
             unique binder because either value is coherent -- PROVIDED
             the word's creating write is itself ordered before the
             reader.  A Local tag on either side, or a creating write
             the reader never synchronized with (the dropped-join
             signature), is a real race. *)
          if is_local_locality area_i || is_local_locality s.w_area then
            report t ~rule:"race" ~pe ~other_pe:s.w_pe ~addr ~area
              "Local-tagged word: read unordered with a write by PE%d \
               (no happens-before edge)"
              s.w_pe
          else if
            s.f_pe <> pe
            && not (hb t ~pe ~epoch_pe:s.f_pe ~epoch_clk:s.f_clk)
          then
            report t ~rule:"race" ~pe ~other_pe:s.f_pe ~addr ~area
              "read of a word whose creating write by PE%d was never \
               synchronized with the reader (missing join/steal edge)"
              s.f_pe
        end
        else
          check_tags t ~addr ~pe ~area_i ~other_pe:s.w_pe
            ~other_area_i:s.w_area
      end;
      (* record the read *)
      if s.r_pe = -2 then begin
        if s.rvec.(pe) < clk then s.rvec.(pe) <- clk
      end
      else if s.r_pe = -1 || s.r_pe = pe then begin
        s.r_pe <- pe;
        s.r_clk <- clk;
        s.r_area <- area_i
      end
      else if hb t ~pe ~epoch_pe:s.r_pe ~epoch_clk:s.r_clk then begin
        (* the previous read epoch is ordered before us: replace it *)
        s.r_pe <- pe;
        s.r_clk <- clk;
        s.r_area <- area_i
      end
      else begin
        (* concurrent readers: inflate to a vector *)
        let v = Array.make max_pes 0 in
        v.(s.r_pe) <- s.r_clk;
        v.(pe) <- clk;
        s.rvec <- v;
        s.r_pe <- -2;
        s.r_area <- area_i
      end
    | R.Write ->
      (* Two unordered writes break single assignment even on coherent
         words: flag them regardless of locality. *)
      (if s.w_pe >= 0 && s.w_pe <> pe then
         if not (hb t ~pe ~epoch_pe:s.w_pe ~epoch_clk:s.w_clk) then
           report t ~rule:"race" ~pe ~other_pe:s.w_pe ~addr ~area
             "write unordered with a write by PE%d" s.w_pe
         else
           check_tags t ~addr ~pe ~area_i ~other_pe:s.w_pe
             ~other_area_i:s.w_area);
      (* Write-after-read: unordered is the binder racing a deref,
         benign on Global words (the reader saw the coherent pre-bind
         value), a real race when a Local tag is involved. *)
      let write_vs_read q q_clk =
        if not (hb t ~pe ~epoch_pe:q ~epoch_clk:q_clk) then begin
          if is_local_locality area_i || is_local_locality s.r_area then
            report t ~rule:"race" ~pe ~other_pe:q ~addr ~area
              "Local-tagged word: write unordered with a read by PE%d" q
        end
        else check_tags t ~addr ~pe ~area_i ~other_pe:q ~other_area_i:s.r_area
      in
      (if s.r_pe = -2 then
         for q = 0 to t.n_pes - 1 do
           if q <> pe && s.rvec.(q) > 0 then write_vs_read q s.rvec.(q)
         done
       else if s.r_pe >= 0 && s.r_pe <> pe then write_vs_read s.r_pe s.r_clk);
      if s.f_pe = -1 then begin
        s.f_pe <- pe;
        s.f_clk <- clk
      end;
      s.w_pe <- pe;
      s.w_clk <- clk;
      s.w_area <- area_i;
      (* reads before this write are now covered by the write epoch *)
      s.r_pe <- -1;
      s.rvec <- [||]
  end

let sync_event t (s : R.sync) =
  t.syncs <- t.syncs + 1;
  note_pe t s.spe;
  match s.kind with
  | R.Release | R.Publish -> sync_release t s.spe s.saddr
  | R.Acquire | R.Steal | R.Join -> sync_acquire t s.spe s.saddr

let feed_word t word =
  if R.is_sync_word word then sync_event t (R.unpack_sync word)
  else access t (R.unpack word)

let finish t =
  {
    violations = List.rev t.violations;
    n_violations = t.n_violations;
    accesses = t.accesses;
    syncs = t.syncs;
    distinct_addrs = Hashtbl.length t.shadows;
    n_pes = t.n_pes;
  }

let check_buffer ?max_violations buf =
  let t = create ?max_violations () in
  Trace.Sink.Buffer_sink.iter_packed (fun w -> feed_word t w) buf;
  finish t

let ok (s : summary) = s.n_violations = 0

let pp_summary fmt (s : summary) =
  Format.fprintf fmt
    "%d access(es), %d sync event(s), %d distinct address(es), %d PE(s): "
    s.accesses s.syncs s.distinct_addrs s.n_pes;
  if ok s then Format.fprintf fmt "clean"
  else begin
    Format.fprintf fmt "%d violation(s)" s.n_violations;
    List.iter (fun v -> Format.fprintf fmt "@,  %a" pp_violation v)
      s.violations
  end

let json_of_summary ?(label = "") (s : summary) =
  let module J = Obs.Json in
  let violation v =
    J.Obj
      [
        ("rule", J.String v.rule);
        ("pe", J.Int v.pe);
        ("other_pe", J.Int v.other_pe);
        ("addr", J.Int v.addr);
        ( "area",
          J.String
            (match v.area with Some a -> Trace.Area.name a | None -> "") );
      ]
  in
  J.Obj
    ((if label = "" then [] else [ ("label", J.String label) ])
    @ [
        ("accesses", J.Int s.accesses);
        ("syncs", J.Int s.syncs);
        ("distinct_addrs", J.Int s.distinct_addrs);
        ("n_pes", J.Int s.n_pes);
        ("violations", J.Int s.n_violations);
      ]
    @
    if s.violations = [] then []
    else [ ("first", J.List (List.map violation s.violations)) ])

(* ------------------------------------------------------------------ *)
(* Seeded-defect transforms.

   Each transform takes a clean packed trace and damages it in one
   specific way that a correct RAP-WAM implementation could get wrong;
   the checker must flag each damaged trace with the matching rule.
   The transforms rewrite the packed-word stream directly, so they
   exercise exactly the representation the checker consumes. *)

module Defects = struct

  type defect = {
    name : string;
    rule : string; (* the rule expected to fire *)
    description : string;
  }

  let all =
    [
      {
        name = "dropped-join";
        rule = "race";
        description =
          "remove every Join event: the parent's post-parcall reads of \
           children's results lose their happens-before edge";
      };
      {
        name = "mistagged-parcall-slot";
        rule = "tag-locality";
        description =
          "retag Parcall F./Global accesses as Parcall F./Local: remote \
           PEs now read slot words the hybrid protocol would cache \
           stale";
      };
      {
        name = "unlocked-counter";
        rule = "race";
        description =
          "remove Acquire/Release events on parcall-frame lock words: \
           cross-PE counter updates become unordered";
      };
      {
        name = "read-before-write";
        rule = "read-before-write";
        description = "append a read of a never-written heap word";
      };
      {
        name = "stale-trail";
        rule = "stale-trail";
        description =
          "append a trail-replay reset of a never-written word";
      };
    ]

  let find name = List.find_opt (fun d -> d.name = name) all
  let names = List.map (fun d -> d.name) all

  (* Rebuild [buf] through [f : word -> word option] (None drops the
     word), then append [extra] packed words. *)
  let rewrite ?(extra = []) f buf =
    let out = Trace.Sink.Buffer_sink.create () in
    Trace.Sink.Buffer_sink.iter_packed
      (fun w ->
        match f w with
        | Some w' -> Trace.Sink.Buffer_sink.push out w'
        | None -> ())
      buf;
    List.iter (Trace.Sink.Buffer_sink.push out) extra;
    out

  let keep w = Some w

  (* Drop every Join event. *)
  let dropped_join buf =
    rewrite
      (fun w ->
        if R.is_sync_word w && (R.unpack_sync w).kind = R.Join then None
        else keep w)
      buf

  (* Retag Parcall_global accesses as Parcall_local.  The remote
     endpoints of the parent/thief slot-word handshake then carry a
     Local tag, which the tag-locality rule rejects. *)
  let mistagged_parcall_slot buf =
    let global_tag = Trace.Area.to_int Trace.Area.Parcall_global in
    let local_tag = Trace.Area.to_int Trace.Area.Parcall_local in
    rewrite
      (fun w ->
        if (not (R.is_sync_word w)) && (w lsr 1) land 0x1f = global_tag
        then Some (w land lnot (0x1f lsl 1) lor (local_tag lsl 1))
        else keep w)
      buf

  (* Drop Acquire/Release events on local-stack addresses, i.e. the
     parcall-frame lock words (goal-stack and message locks live in
     their own regions and keep their events). *)
  let unlocked_counter buf =
    rewrite
      (fun w ->
        if R.is_sync_word w then begin
          let s = R.unpack_sync w in
          match s.kind with
          | R.Acquire | R.Release
            when Wam.Layout.is_local_stack_addr s.saddr ->
            None
          | _ -> keep w
        end
        else keep w)
      buf

  (* Append a PE0 read of the last heap word, which no benchmark ever
     writes. *)
  let read_before_write buf =
    let addr = Wam.Layout.heap_limit 0 - 1 in
    rewrite keep buf
      ~extra:
        [ R.pack { R.pe = 0; addr; area = Trace.Area.Heap; op = R.Read } ]

  (* Append a trail-replay pair (Trail read, then the reset write) whose
     reset targets a never-written heap word. *)
  let stale_trail buf =
    let victim = Wam.Layout.heap_limit 0 - 2 in
    let trail_addr = Wam.Layout.trail_base 0 in
    rewrite keep buf
      ~extra:
        [
          R.pack
            { R.pe = 0; addr = trail_addr; area = Trace.Area.Trail;
              op = R.Read };
          R.pack
            { R.pe = 0; addr = victim; area = Trace.Area.Heap;
              op = R.Write };
        ]

  let apply name buf =
    match name with
    | "dropped-join" -> dropped_join buf
    | "mistagged-parcall-slot" -> mistagged_parcall_slot buf
    | "unlocked-counter" -> unlocked_counter buf
    | "read-before-write" -> read_before_write buf
    | "stale-trail" -> stale_trail buf
    | _ -> invalid_arg (Printf.sprintf "Defects.apply: unknown defect %S" name)
end
