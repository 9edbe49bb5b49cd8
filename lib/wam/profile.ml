(* Per-predicate dynamic profiling from the reference stream, and the
   one attribution rule every trace replay uses.

   The compiler lays each predicate's code out contiguously starting
   at its entry address, so sorting the entry map yields a partition
   of the code area into predicate-owned ranges.  A replay follows
   each PE: an instruction fetch (Code-area read) inside a range opens
   the PE's window, and every data reference the PE makes until its
   next fetch belongs to the fetched instruction.  A fetch of the
   entry address itself is a call (backtracking re-enters predicates
   at clause or retry addresses, never at the entry, so entry fetches
   count procedure calls the same way the machine's inference counter
   does).

   Runtime references belong to no window: a PE's references before
   its first fetch (query seeding), after a fetch outside every range
   (the halt and goal_done stubs: completion, stealing) and from its
   first Message access up to its next fetch (a PE drains its message
   buffer between instructions: trail replay, binding resets, acks).
   Parallel traces interleave PEs; windows are per PE, so the scheme
   works unchanged for RAP-WAM runs. *)

type counters = {
  fid : int;
  entry : int;  (** entry instruction index *)
  mutable calls : int;
  mutable instrs : int;  (** instruction fetches in this range *)
  mutable cp_created : int;  (** deep try fetches: choice points pushed *)
  mutable cp_elided : int;  (** shallow try fetches: certified chains *)
  mutable trail_elided : int;
      (** fetches of binding-certified instructions that skip the
          trail check (uncond gets, builtins and put_variable) *)
  mutable deref_skipped : int;
      (** fetches of rigid or uncond gets that skip the argument deref *)
  refs : int array;  (** data references, indexed by [Trace.Area.to_int] *)
}

type t = {
  symbols : Symbols.t;
  code : Code.t;  (** for decoding fetched instructions *)
  bounds : int array;  (** sorted entry indices, one per predicate *)
  owners : counters array;  (** owner of [bounds.(i) ..] *)
  runtime : int array;  (** runtime data refs, by area *)
  mutable runtime_fetches : int;  (** fetches outside every predicate *)
}

let create symbols code =
  let entries = ref [] in
  Code.iter_entries code (fun fid addr -> entries := (addr, fid) :: !entries);
  let entries =
    Array.of_list (List.sort (fun (a, _) (b, _) -> compare a b) !entries)
  in
  {
    symbols;
    code;
    bounds = Array.map fst entries;
    owners =
      Array.map
        (fun (entry, fid) ->
          {
            fid;
            entry;
            calls = 0;
            instrs = 0;
            cp_created = 0;
            cp_elided = 0;
            trail_elided = 0;
            deref_skipped = 0;
            refs = Array.make Trace.Area.count 0;
          })
        entries;
    runtime = Array.make Trace.Area.count 0;
    runtime_fetches = 0;
  }

(* Greatest entry <= idx, by binary search; None below the first. *)
let owner t idx =
  let n = Array.length t.bounds in
  if n = 0 || idx < t.bounds.(0) then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let m = (!lo + !hi + 1) / 2 in
      if t.bounds.(m) <= idx then lo := m else hi := m - 1
    done;
    Some t.owners.(!lo)
  end

type 'w windows = {
  fetch : Trace.Ref_record.t -> counters -> int -> 'w;
  data : 'w -> Trace.Ref_record.t -> unit;
  close : 'w -> unit;
  runtime : Trace.Ref_record.t -> unit;
}

module R = Trace.Ref_record

(* The sink reads each word's tag, PE and fetch address with shifts
   and decodes a record only for the window callbacks. *)
let attribute t (h : 'w windows) =
  let open_ = Array.make (R.max_pe + 1) None in
  let close pe =
    match open_.(pe) with
    | Some w ->
      open_.(pe) <- None;
      h.close w
    | None -> ()
  in
  let code = Trace.Area.to_int Trace.Area.Code
  and message = Trace.Area.to_int Trace.Area.Message in
  let record word =
    let tag = (word lsr R.tag_shift) land R.tag_mask in
    if tag < R.sync_tag_base then begin
      let pe = (word lsr R.pe_shift) land R.pe_mask in
      if tag = code then begin
        close pe;
        let idx = (word lsr R.addr_bits_shift) - Layout.code_base in
        match owner t idx with
        | Some c -> open_.(pe) <- Some (h.fetch (R.unpack word) c idx)
        | None -> h.runtime (R.unpack word)
      end
      else begin
        if tag = message then close pe;
        match open_.(pe) with
        | Some w -> h.data w (R.unpack word)
        | None -> h.runtime (R.unpack word)
      end
    end
  in
  ( { Trace.Sink.emit_word = record },
    fun () -> Array.iteri (fun pe _ -> close pe) open_ )

let replay t h buf =
  let sink, finish = attribute t h in
  Trace.Sink.Buffer_sink.iter_packed sink.Trace.Sink.emit_word buf;
  finish ()

let count_fetch t (c : counters) idx =
  c.instrs <- c.instrs + 1;
  if idx = c.entry then c.calls <- c.calls + 1;
  if idx >= 0 && idx < Code.length t.code then begin
    match Code.fetch t.code idx with
    | Instr.Try (_, Instr.Deep) -> c.cp_created <- c.cp_created + 1
    | Instr.Try (_, Instr.Shallow) -> c.cp_elided <- c.cp_elided + 1
    | Instr.Get_structure (_, _, Instr.Rigid)
    | Instr.Get_list (_, Instr.Rigid)
    | Instr.Get_value (_, _, Instr.Rigid) ->
      c.deref_skipped <- c.deref_skipped + 1
    | Instr.Get_structure (_, _, Instr.Uncond)
    | Instr.Get_list (_, Instr.Uncond)
    | Instr.Get_constant (_, _, true) ->
      c.deref_skipped <- c.deref_skipped + 1;
      c.trail_elided <- c.trail_elided + 1
    | Instr.Builtin (_, _, true)
    | Instr.Put_variable (_, _, true)
    | Instr.Get_value (_, _, Instr.Uncond) ->
      c.trail_elided <- c.trail_elided + 1
    | _ -> ()
  end;
  c

let tally refs (r : Trace.Ref_record.t) =
  let k = Trace.Area.to_int r.Trace.Ref_record.area in
  refs.(k) <- refs.(k) + 1

let sink t =
  fst
    (attribute t
      {
        fetch = (fun _ c idx -> count_fetch t c idx);
        data = (fun c r -> tally c.refs r);
        close = ignore;
        runtime =
          (fun r ->
            if r.Trace.Ref_record.area = Trace.Area.Code then
              t.runtime_fetches <- t.runtime_fetches + 1
            else tally t.runtime r);
      })

let data_refs (c : counters) = Array.fold_left ( + ) 0 c.refs
let spec t (c : counters) = Symbols.spec_string t.symbols c.fid

(* Predicates that did any work, busiest first; name order breaks
   ties so output is deterministic. *)
let ranked t =
  let active =
    List.filter
      (fun c -> c.calls > 0 || c.instrs > 0 || data_refs c > 0)
      (Array.to_list t.owners)
  in
  List.sort
    (fun a b ->
      match compare (data_refs b) (data_refs a) with
      | 0 -> (
        match compare b.instrs a.instrs with
        | 0 -> compare (spec t a) (spec t b)
        | n -> n)
      | n -> n)
    active

let pp fmt t =
  Format.fprintf fmt "%-22s %8s %10s %10s %8s %8s %8s %8s  %s@." "predicate"
    "calls" "instrs" "data refs" "cp push" "cp elide" "tr elide" "dr skip"
    "top areas";
  let areas_of c =
    let pairs =
      List.filter
        (fun (_, n) -> n > 0)
        (List.map
           (fun a -> (Trace.Area.name a, c.refs.(Trace.Area.to_int a)))
           Trace.Area.all)
    in
    let pairs = List.sort (fun (_, a) (_, b) -> compare b a) pairs in
    String.concat ", "
      (List.map
         (fun (n, v) -> Printf.sprintf "%s %d" n v)
         (List.filteri (fun i _ -> i < 3) pairs))
  in
  List.iter
    (fun c ->
      Format.fprintf fmt "%-22s %8d %10d %10d %8d %8d %8d %8d  %s@."
        (spec t c) c.calls c.instrs (data_refs c) c.cp_created c.cp_elided
        c.trail_elided c.deref_skipped (areas_of c))
    (ranked t);
  let runtime = Array.fold_left ( + ) 0 t.runtime in
  if runtime > 0 then
    Format.fprintf fmt "%-22s %8s %10s %10d@." "(runtime)" "-" "-" runtime

let to_json t =
  let module J = Obs.Json in
  let refs counts =
    J.Obj
      (List.filter_map
         (fun a ->
           let n = counts.(Trace.Area.to_int a) in
           if n > 0 then Some (Trace.Area.name a, J.Int n) else None)
         Trace.Area.all)
  in
  let row c =
    J.Obj
      [
        ("predicate", J.String (spec t c));
        ("calls", J.Int c.calls);
        ("instrs", J.Int c.instrs);
        ("cp_created", J.Int c.cp_created);
        ("cp_elided", J.Int c.cp_elided);
        ("trail_elided", J.Int c.trail_elided);
        ("deref_skipped", J.Int c.deref_skipped);
        ("refs", refs c.refs);
      ]
  in
  let runtime =
    J.Obj
      [
        ("predicate", J.String "(runtime)");
        ("instrs", J.Int t.runtime_fetches);
        ("refs", refs t.runtime);
      ]
  in
  J.List (List.map row (ranked t) @ [ runtime ])
