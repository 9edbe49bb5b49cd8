(* Dynamic soundness oracle for binding-certified specialization.

   The bind-mode compiler only sets instruction attributes, so an
   index-wise diff of the baseline and bind-mode code arrays (same det
   plan on both) recovers every certified site.  The oracle then
   replays the BASELINE trace and audits each site against what its
   certified attribute would have assumed:

   - [Uncond] term gets and atomic gets with the [uncond] flag (uninit
     certificate): the baseline window must consist
     of one dereference read of the argument cell followed by a write
     of that same cell.  Extra reads before the write mean the
     argument was a deref chain or already bound ("deref-depth" /
     "bound-arg" violations) -- the certified get would have overwritten
     or misread it.
   - [Rigid] gets (rigid certificate): the baseline window must show no
     binding write and at most the depth-0 accesses ("free-arg" /
     "deref-depth" violations).
   - [Uncond] [get_value] / [uncond] [builtin] (no-trail
     certificate): every cell the baseline window binds joins a watch
     set [S]; a later
     trail-restore of a watched cell (a write immediately preceded by
     a Trail read) followed by a re-read is a "stale-bind" violation
     -- the elided trail entry would have left the stale binding in
     place.  A write without the trail-read prefix (heap reuse after a
     deep backtrack, shallow-log restore) retires the watch.
   - [uncond] [put_variable]: the cell the baseline put initializes
     joins a pending set [P]; any read of it before a write is an
     "uninit-read" violation (the certified put skips the
     self-reference initialization).  The dereference self-read inside
     a window that writes the cell later is exempt.

   Windows are Wam.Profile's: the data accesses a PE makes from one
   fetch to its next fetch (or its first Message access) belong to the
   fetched instruction.  Cell rules look at Heap and Env_pvar accesses
   only; Trail reads feed the restore detector. *)

type kind =
  | K_uninit_get
  | K_rigid_struct
  | K_rigid_list
  | K_rigid_value
  | K_value_nt
  | K_put_uninit
  | K_builtin_nt

type violation = {
  v_pe : int;
  v_pred : string;  (** owning predicate of the site (baseline code) *)
  v_area : Trace.Area.t;
  v_kind : string;  (** "bound-arg", "deref-depth", "free-arg",
                        "stale-bind", "uninit-read", "misaligned" *)
  v_site : int;  (** code address of the certified site *)
  v_addr : int;  (** offending data address (0 for misalignment) *)
}

type report = {
  sites_checked : int;
  windows : int;  (** site windows replayed *)
  violations : violation list;
}

let pp_violation fmt v =
  Format.fprintf fmt "PE%d: %s violation at site @%d (%s) addr %d [%s]" v.v_pe
    v.v_kind v.v_site v.v_pred v.v_addr (Trace.Area.slug v.v_area)

(* Diff one instruction pair into a site kind.  [None] = identical,
   [Some (Error ())] = a diff the bind plan cannot produce: anything
   but a baseline instruction gaining one binding attribute. *)
let site_of_pair (base : Wam.Instr.t) (bind : Wam.Instr.t) =
  if base = bind then None
  else if base <> Wam.Instr.plain bind then Some (Error ())
  else
    Some
      (match bind with
      | Wam.Instr.Get_structure (_, _, Wam.Instr.Uncond)
      | Wam.Instr.Get_list (_, Wam.Instr.Uncond)
      | Wam.Instr.Get_constant (_, _, true) ->
        Ok K_uninit_get
      | Wam.Instr.Get_structure (_, _, Wam.Instr.Rigid) -> Ok K_rigid_struct
      | Wam.Instr.Get_list (_, Wam.Instr.Rigid) -> Ok K_rigid_list
      | Wam.Instr.Get_value (_, _, Wam.Instr.Rigid) -> Ok K_rigid_value
      | Wam.Instr.Get_value (_, _, Wam.Instr.Uncond) -> Ok K_value_nt
      | Wam.Instr.Put_variable (_, _, true) -> Ok K_put_uninit
      | Wam.Instr.Builtin (_, _, true) -> Ok K_builtin_nt
      | _ -> Error ())

type access = { w_op : Trace.Ref_record.op; w_addr : int; w_area : Trace.Area.t }

type window = {
  wn_pe : int;
  wn_site : int;
  wn_kind : kind;
  mutable wn_acc : access list;  (** reversed *)
  mutable wn_pending : int list;  (** P-addrs read inside this window *)
}

let cell_area a = a = Trace.Area.Heap || a = Trace.Area.Env_pvar

(* [base_code]/[bind_code]: same det plan, bind plan only on the
   second.  [buf] must be the trace of a run of [base_code]. *)
let check ~symbols ~base_code ~bind_code buf =
  let n = Wam.Code.length base_code in
  let violations = ref [] in
  let prof = Wam.Profile.create symbols base_code in
  let owner_name idx =
    match Wam.Profile.owner prof idx with
    | Some c -> Wam.Profile.spec prof c
    | None -> "?"
  in
  let sites : kind option array = Array.make n None in
  let n_sites = ref 0 in
  if Wam.Code.length bind_code <> n then
    violations :=
      [
        {
          v_pe = 0;
          v_pred = "?";
          v_area = Trace.Area.Code;
          v_kind = "misaligned";
          v_site = 0;
          v_addr = 0;
        };
      ]
  else
    for a = 0 to n - 1 do
      match site_of_pair (Wam.Code.fetch base_code a) (Wam.Code.fetch bind_code a) with
      | None -> ()
      | Some (Ok k) ->
        sites.(a) <- Some k;
        incr n_sites
      | Some (Error ()) ->
        violations :=
          {
            v_pe = 0;
            v_pred = owner_name a;
            v_area = Trace.Area.Code;
            v_kind = "misaligned";
            v_site = a;
            v_addr = 0;
          }
          :: !violations
    done;
  let windows = ref 0 in
  (* watch set S: addr -> (site, restored?) *)
  let s_tbl : (int, int * bool ref) Hashtbl.t = Hashtbl.create 64 in
  (* pending-uninit set P: addr -> originating site *)
  let p_tbl : (int, int) Hashtbl.t = Hashtbl.create 16 in
  (* per PE: was its last reference since its last fetch a Trail read? *)
  let trail_read = Array.make (Trace.Ref_record.max_pe + 1) false in
  let violate pe site area kind addr =
    violations :=
      {
        v_pe = pe;
        v_pred = owner_name site;
        v_area = area;
        v_kind = kind;
        v_site = site;
        v_addr = addr;
      }
      :: !violations
  in
  let finalize (w : window) =
    let pe = w.wn_pe in
    incr windows;
    let acc = List.rev w.wn_acc in
    let cells = List.filter (fun a -> cell_area a.w_area) acc in
    let writes = List.filter (fun a -> a.w_op = Trace.Ref_record.Write) cells in
    let written addr = List.exists (fun a -> a.w_addr = addr) writes in
    (match w.wn_kind with
    | K_uninit_get -> (
      match cells with
      | { w_op = Trace.Ref_record.Read; w_addr = x; w_area } :: rest ->
        let rec scan = function
          | [] -> violate pe w.wn_site w_area "bound-arg" x
          | { w_op = Trace.Ref_record.Write; w_addr; _ } :: _ when w_addr = x ->
            (* certified shape: deref self-read then bind *)
            Hashtbl.replace s_tbl x (w.wn_site, ref false)
          | { w_op = Trace.Ref_record.Read; w_addr; w_area = a; _ } :: _ ->
            violate pe w.wn_site a "deref-depth" w_addr
          | _ :: rest -> scan rest
        in
        scan rest
      | { w_op = Trace.Ref_record.Write; w_addr; w_area; _ } :: _ ->
        violate pe w.wn_site w_area "bound-arg" w_addr
      | [] -> violate pe w.wn_site Trace.Area.Heap "bound-arg" 0)
    | K_rigid_struct ->
      List.iter
        (fun a ->
          if a.w_op = Trace.Ref_record.Write then
            violate pe w.wn_site a.w_area "free-arg" a.w_addr)
        cells;
      if List.length (List.filter (fun a -> a.w_op = Trace.Ref_record.Read) cells) > 1
      then
        violate pe w.wn_site Trace.Area.Heap "deref-depth"
          (match cells with a :: _ -> a.w_addr | [] -> 0)
    | K_rigid_list ->
      (match cells with
      | a :: _ ->
        violate pe w.wn_site a.w_area
          (if a.w_op = Trace.Ref_record.Write then "free-arg" else "deref-depth")
          a.w_addr
      | [] -> ())
    | K_rigid_value ->
      List.iter
        (fun a ->
          if a.w_op = Trace.Ref_record.Write then
            violate pe w.wn_site a.w_area "free-arg" a.w_addr)
        cells
    | K_value_nt | K_builtin_nt ->
      List.iter
        (fun a -> Hashtbl.replace s_tbl a.w_addr (w.wn_site, ref false))
        writes
    | K_put_uninit ->
      List.iter (fun a -> Hashtbl.replace p_tbl a.w_addr w.wn_site) writes);
    (* P reads collected in this window: exempt iff the window itself
       wrote the cell (the deref self-read of a bind target) *)
    List.iter
      (fun addr ->
        if not (written addr) then
          violate pe w.wn_site Trace.Area.Heap "uninit-read" addr)
      w.wn_pending
  in
  (* the restore detector and P bookkeeping run in stream order,
     window or not *)
  let reference (cw : window option) (r : Trace.Ref_record.t) =
    if cell_area r.area then begin
      (match (r.op, Hashtbl.find_opt s_tbl r.addr) with
      | Trace.Ref_record.Write, Some (_site, restored) ->
        if trail_read.(r.pe) then restored := true
        else Hashtbl.remove s_tbl r.addr
      | Trace.Ref_record.Read, Some (site, restored) when !restored ->
        violate r.pe site r.area "stale-bind" r.addr;
        Hashtbl.remove s_tbl r.addr
      | _ -> ());
      (match (r.op, Hashtbl.find_opt p_tbl r.addr, cw) with
      | Trace.Ref_record.Write, _, _ -> Hashtbl.remove p_tbl r.addr
      | Trace.Ref_record.Read, Some _, Some w
        when w.wn_kind = K_uninit_get || w.wn_kind = K_builtin_nt
             || w.wn_kind = K_value_nt ->
        w.wn_pending <- r.addr :: w.wn_pending
      | Trace.Ref_record.Read, Some p_site, _ ->
        violate r.pe p_site r.area "uninit-read" r.addr
      | Trace.Ref_record.Read, None, _ -> ());
      Option.iter
        (fun w ->
          w.wn_acc <-
            { w_op = r.op; w_addr = r.addr; w_area = r.area } :: w.wn_acc)
        cw
    end;
    trail_read.(r.pe) <-
      r.area = Trace.Area.Trail && r.op = Trace.Ref_record.Read
  in
  Wam.Profile.replay prof
    {
      Wam.Profile.fetch =
        (fun r _ idx ->
          trail_read.(r.pe) <- false;
          match if idx < n then sites.(idx) else None with
          | Some k ->
            Some
              { wn_pe = r.pe; wn_site = idx; wn_kind = k; wn_acc = [];
                wn_pending = [] }
          | None -> None);
      data = reference;
      close = Option.iter finalize;
      runtime =
        (fun r ->
          if r.area = Trace.Area.Code then trail_read.(r.pe) <- false
          else reference None r);
    }
    buf;
  {
    sites_checked = !n_sites;
    windows = !windows;
    violations = List.rev !violations;
  }
