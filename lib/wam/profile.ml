(* Per-predicate dynamic profiling from the reference stream.

   The compiler lays each predicate's code out contiguously starting
   at its entry address, so sorting the entry map yields a partition
   of the code area into predicate-owned ranges.  The profiler then
   replays the trace: an instruction fetch (Code-area read) selects
   the owning predicate as the PE's current attribution target, and
   every data reference is charged to the predicate whose instruction
   the PE last fetched.  A fetch of the entry address itself is a call
   (backtracking re-enters predicates at clause or retry addresses,
   never at the entry, so entry fetches count procedure calls the same
   way the machine's inference counter does).

   Parallel traces interleave PEs; attribution is tracked per PE, so
   the scheme works unchanged for RAP-WAM runs.  References made by a
   PE before its first fetch (scheduler activity on an idle PE) land
   in the [other] bucket. *)

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
  other : int array;  (** data refs with no current predicate *)
  current : counters option array;  (** per-PE attribution target *)
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
    other = Array.make Trace.Area.count 0;
    current = Array.make (Trace.Ref_record.max_pe + 1) None;
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

let on_record t (r : Trace.Ref_record.t) =
  if r.Trace.Ref_record.area = Trace.Area.Code then begin
    let idx = r.Trace.Ref_record.addr - Layout.code_base in
    match owner t idx with
    | Some p ->
      t.current.(r.Trace.Ref_record.pe) <- Some p;
      p.instrs <- p.instrs + 1;
      if idx = p.entry then p.calls <- p.calls + 1;
      if idx >= 0 && idx < Code.length t.code then begin
        match Code.fetch t.code idx with
        | Instr.Try (_, Instr.Deep) -> p.cp_created <- p.cp_created + 1
        | Instr.Try (_, Instr.Shallow) -> p.cp_elided <- p.cp_elided + 1
        | Instr.Get_structure (_, _, Instr.Rigid)
        | Instr.Get_list (_, Instr.Rigid)
        | Instr.Get_value (_, _, Instr.Rigid) ->
          p.deref_skipped <- p.deref_skipped + 1
        | Instr.Get_structure (_, _, Instr.Uncond)
        | Instr.Get_list (_, Instr.Uncond)
        | Instr.Get_constant (_, _, true)
        | Instr.Get_integer (_, _, true)
        | Instr.Get_nil (_, true) ->
          p.deref_skipped <- p.deref_skipped + 1;
          p.trail_elided <- p.trail_elided + 1
        | Instr.Builtin (_, _, true)
        | Instr.Put_variable (_, _, true)
        | Instr.Get_value (_, _, Instr.Uncond) ->
          p.trail_elided <- p.trail_elided + 1
        | _ -> ()
      end
    | None -> t.current.(r.Trace.Ref_record.pe) <- None
  end
  else begin
    let k = Trace.Area.to_int r.Trace.Ref_record.area in
    match t.current.(r.Trace.Ref_record.pe) with
    | Some p -> p.refs.(k) <- p.refs.(k) + 1
    | None -> t.other.(k) <- t.other.(k) + 1
  end

let sink t : Trace.Sink.t =
  { Trace.Sink.emit = on_record t; emit_sync = (fun _ -> ()) }

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
  let other = Array.fold_left ( + ) 0 t.other in
  if other > 0 then
    Format.fprintf fmt "%-22s %8s %10s %10d@." "(scheduler)" "-" "-" other

let to_json t =
  let module J = Obs.Json in
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
        ( "refs",
          J.Obj
            (List.filter_map
               (fun a ->
                 let n = c.refs.(Trace.Area.to_int a) in
                 if n > 0 then Some (Trace.Area.name a, J.Int n) else None)
               Trace.Area.all) );
      ]
  in
  J.List (List.map row (ranked t))
