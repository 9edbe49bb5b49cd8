(* The WAM execution core: dereferencing, binding, trailing,
   unification, arithmetic, builtins, backtracking and the sequential
   instruction semantics.

   All memory accesses go through [Memory] and are traced.  The
   parallel instructions (alloc_parcall, push_goal, par_join,
   goal_done) are not handled here; the RAP-WAM simulator intercepts
   them before delegating to [step_core].

   Choice-point frame layout (base B, n = saved arity):
     B+0          nargs
     B+1..B+n     argument registers
     B+n+1..n+8   e, cp, prev_b, next_alt, tr, h, b0, saved_lst
   Total size n+9 words, all tagged Choice_point.  (HB and the
   local-stack protection for the previous choice point are re-read
   from that frame when a trust pops this one, saving two words per
   frame in the common cut/commit case.) *)

open Machine

exception No_more_choices of worker
(* Raised by [fail] when backtracking reaches the execution barrier:
   query failure for the root context, goal failure inside a parallel
   goal. *)

(* A choice point holds its arity, the saved argument registers, and E,
   CP, B, the next alternative, TR, H, B0 and the local-stack top
   ([push_choice_point]). *)
let choice_point_words arity = arity + 9

(* ------------------------------------------------------------------ *)
(* Memory access helpers (pe = issuing worker).                       *)

let rd m (w : worker) ~area addr = Memory.read m.mem ~pe:w.id ~area addr
let wr m (w : worker) ~area addr cell = Memory.write m.mem ~pe:w.id ~area addr cell
let rd_auto m (w : worker) addr = Memory.read_auto m.mem ~pe:w.id addr
let wr_auto m (w : worker) addr cell = Memory.write_auto m.mem ~pe:w.id addr cell

let fetch_traced m (w : worker) =
  (* Instruction fetch: one code-region read, packed here as
     [Memory.read] packs its words. *)
  m.mem.Memory.sink.Trace.Sink.emit_word
    ((Code.trace_addr w.p lsl Trace.Ref_record.addr_bits_shift)
    lor (w.id lsl Trace.Ref_record.pe_shift)
    lor (Trace.Area.to_int Trace.Area.Code lsl Trace.Ref_record.tag_shift));
  Code.fetch m.code w.p

(* ------------------------------------------------------------------ *)
(* Dereferencing, trailing, binding.                                  *)

let rec deref m w cell =
  if Cell.is_ref cell then begin
    let a = Cell.payload cell in
    let v = rd_auto m w a in
    if v = cell then cell else deref m w v
  end
  else cell

let trail_push m (w : worker) addr =
  if w.tr >= Layout.trail_limit w.id then
    runtime_error "trail overflow (PE %d)" w.id;
  wr m w ~area:Trace.Area.Trail w.tr (Cell.raw addr);
  w.tr <- w.tr + 1;
  if w.tr > w.max_tr then w.max_tr <- w.tr

(* Trail condition: bindings to this worker's own cells younger than
   the newest choice point (heap above HB, local stack above the
   protection floor) need no trail entry; everything else -- older
   cells and every cross-PE binding -- is trailed. *)
let must_trail (w : worker) addr =
  if Layout.pe_of_addr addr <> w.id then true
  else if Layout.is_heap_addr addr then addr < w.hb
  else if Layout.is_local_stack_addr addr then addr < w.prot_lst
  else true

(* Shallow analogue of the trail condition, against the shallow
   frame's snapshot instead of the newest choice point: bindings to
   cells that predate the frame must be logged so a shallow fail can
   restore them.  [sh_h >= hb] and [sh_lst >= prot_lst] always hold,
   so the log is a superset of what the trail would have recorded. *)
let shallow_protects (w : worker) addr =
  let sh = w.shallow in
  if Layout.pe_of_addr addr <> w.id then true
  else if Layout.is_heap_addr addr then addr < sh.sh_h
  else if Layout.is_local_stack_addr addr then addr < sh.sh_lst
  else true

(* Unconditional bind (lib/bindan): the certificate says no live
   choice point or parcall trail floor predates [addr], so the trail
   test and write are skipped.  Under an active shallow frame the
   address still goes to the frame's restore log (a shallow retry must
   undo the write), but to [sh_nt_log], which commit DROPS instead of
   flushing — the flush is exactly the trail write the certificate
   deletes. *)
let bind_nt m (w : worker) addr cell =
  wr_auto m w addr cell;
  m.trail_elided <- m.trail_elided + 1;
  if w.shallow.sh_active && shallow_protects w addr then
    w.shallow.sh_nt_log <- addr :: w.shallow.sh_nt_log

let bind m w addr cell =
  if w.no_trail then bind_nt m w addr cell
  else begin
    wr_auto m w addr cell;
    if w.shallow.sh_active then begin
      if shallow_protects w addr then
        w.shallow.sh_log <- addr :: w.shallow.sh_log
    end
    else if must_trail w addr then trail_push m w addr
  end

(* Bind two unbound variables: stack variables point at heap variables
   (stack cells die first); between same-kind cells the younger (higher
   address) points at the older. *)
let bind_vars m w a1 a2 =
  let s1 = Layout.is_local_stack_addr a1 in
  let s2 = Layout.is_local_stack_addr a2 in
  if s1 && not s2 then bind m w a1 (Cell.ref_ a2)
  else if s2 && not s1 then bind m w a2 (Cell.ref_ a1)
  else if a1 < a2 then bind m w a2 (Cell.ref_ a1)
  else bind m w a1 (Cell.ref_ a2)

(* ------------------------------------------------------------------ *)
(* Heap allocation.                                                   *)

let hpush m (w : worker) cell =
  if w.h >= Layout.heap_limit w.id then
    runtime_error "heap overflow (PE %d)" w.id;
  wr m w ~area:Trace.Area.Heap w.h cell;
  let a = w.h in
  w.h <- w.h + 1;
  if w.h > w.max_h then w.max_h <- w.h;
  a

let fresh_heap_var m w =
  let a = w.h in
  ignore (hpush m w (Cell.ref_ a));
  a

(* ------------------------------------------------------------------ *)
(* Cycle guard.                                                       *)

(* Untraced dereference: reads through [Memory.peek]. *)
let rec peek_deref m c =
  if Cell.is_ref c then begin
    let v = Memory.peek m.mem (Cell.payload c) in
    if v = c then c else peek_deref m v
  end
  else c

(* Does the term at [cell] reach itself?  An untraced depth-first walk
   (every read goes through [Memory.peek], so no trace byte or counter
   moves).  A structure or list cell met again while it is still on the
   walk's path closes a cycle: a binding made without occurs check.  One
   met again after its subterms were walked is a shared subterm and is
   not walked twice, so the check visits each reachable cell once. *)
let cyclic m cell =
  let on_path = Hashtbl.create 64 in
  let exception Cycle in
  let rec term cell =
    match Cell.view (peek_deref m cell) with
    | Cell.Lis a -> args a 0 1
    | Cell.Str a -> begin
      match Cell.view (Memory.peek m.mem a) with
      | Cell.Fun fid -> args a 1 (Symbols.functor_arity m.symbols fid)
      | Cell.Ref _ | Cell.Str _ | Cell.Lis _ | Cell.Con _ | Cell.Num _
      | Cell.Raw _ ->
        ()
    end
    | Cell.Ref _ | Cell.Con _ | Cell.Num _ | Cell.Fun _ | Cell.Raw _ -> ()
  and args a lo hi =
    match Hashtbl.find_opt on_path a with
    | Some true -> raise Cycle
    | Some false -> ()
    | None ->
      Hashtbl.replace on_path a true;
      for i = lo to hi do
        term (Memory.peek m.mem (a + i))
      done;
      Hashtbl.replace on_path a false
  in
  match term cell with () -> false | exception Cycle -> true

(* The walks that recurse through terms (unification, comparison,
   ground/1 and indep/2) count the cells they visit in an int argument.
   At [cycle_bound] visits, and at every doubling of the count after
   that, a walk asks [cyclic] about its root terms and stops with a
   [Runtime_error] when one is cyclic; otherwise it goes on.  Shared
   subterms can make an acyclic walk pass the bound (a DAG of n cells
   unfolds to up to 2^n tree positions), so the count alone proves
   nothing.  A walk under the bound never checks, and the check reads
   untraced, so no trace byte changes. *)
let cycle_bound = 1 lsl 16

let[@inline] visit m what r1 r2 n =
  let n = n + 1 in
  if
    n >= cycle_bound
    && n land (n - 1) = 0
    && (cyclic m r1 || (r2 <> r1 && cyclic m r2))
  then runtime_error "%s: cyclic term" what;
  n

(* ------------------------------------------------------------------ *)
(* Unification (PDL-based).                                           *)

let pdl_push m (w : worker) c1 c2 =
  if w.pdl + 2 > Layout.pdl_limit w.id then
    runtime_error "PDL overflow (PE %d)" w.id;
  wr m w ~area:Trace.Area.Pdl w.pdl c1;
  wr m w ~area:Trace.Area.Pdl (w.pdl + 1) c2;
  w.pdl <- w.pdl + 2

let pdl_pop m (w : worker) =
  w.pdl <- w.pdl - 2;
  let c1 = rd m w ~area:Trace.Area.Pdl w.pdl in
  let c2 = rd m w ~area:Trace.Area.Pdl (w.pdl + 1) in
  (c1, c2)

(* General unification.  The current pair is kept in registers (as in
   real WAM implementations); the PDL holds only the extra sub-pairs of
   compound terms, so trivial unifications generate no PDL traffic.
   [base] is the PDL top at entry, [r1]/[r2] the roots and [n] the
   pairs visited (see [visit]). *)
let rec unify_next m (w : worker) base r1 r2 n ok =
  if not ok then begin
    w.pdl <- base;
    false
  end
  else if w.pdl = base then true
  else begin
    let c1, c2 = pdl_pop m w in
    unify_pair m w base r1 r2 n c1 c2
  end

and unify_pair m w base r1 r2 n c1 c2 =
  let n = visit m "unify" r1 r2 n in
  let d1 = deref m w c1 in
  let d2 = deref m w c2 in
  if d1 = d2 then unify_next m w base r1 r2 n true
  else begin
    match (Cell.view d1, Cell.view d2) with
    | Cell.Ref a1, Cell.Ref a2 ->
      bind_vars m w a1 a2;
      unify_next m w base r1 r2 n true
    | ( Cell.Ref a,
        ( Cell.Str _ | Cell.Lis _ | Cell.Con _ | Cell.Num _ | Cell.Fun _
        | Cell.Raw _ ) ) ->
      bind m w a d2;
      unify_next m w base r1 r2 n true
    | ( ( Cell.Str _ | Cell.Lis _ | Cell.Con _ | Cell.Num _ | Cell.Fun _
        | Cell.Raw _ ),
        Cell.Ref a ) ->
      bind m w a d1;
      unify_next m w base r1 r2 n true
    | Cell.Lis a1, Cell.Lis a2 ->
      (* tails go to the PDL; continue with the heads *)
      pdl_push m w (rd_auto m w (a1 + 1)) (rd_auto m w (a2 + 1));
      unify_pair m w base r1 r2 n (rd_auto m w a1) (rd_auto m w a2)
    | Cell.Str a1, Cell.Str a2 ->
      let f1 = rd_auto m w a1 in
      let f2 = rd_auto m w a2 in
      if f1 <> f2 then unify_next m w base r1 r2 n false
      else begin
        let arity = Symbols.functor_arity m.symbols (Cell.payload f1) in
        if arity = 0 then unify_next m w base r1 r2 n true
        else begin
          for i = 2 to arity do
            pdl_push m w (rd_auto m w (a1 + i)) (rd_auto m w (a2 + i))
          done;
          unify_pair m w base r1 r2 n
            (rd_auto m w (a1 + 1))
            (rd_auto m w (a2 + 1))
        end
      end
    | ( ( Cell.Str _ | Cell.Lis _ | Cell.Con _ | Cell.Num _ | Cell.Fun _
        | Cell.Raw _ ),
        _ ) ->
      unify_next m w base r1 r2 n false
  end

let unify m (w : worker) c1 c2 = unify_pair m w w.pdl c1 c2 0 c1 c2

(* ------------------------------------------------------------------ *)
(* Backtracking.                                                      *)

let untrail_to m (w : worker) saved_tr =
  while w.tr > saved_tr do
    w.tr <- w.tr - 1;
    let entry = rd m w ~area:Trace.Area.Trail w.tr in
    let a = Cell.payload entry in
    wr_auto m w a (Cell.ref_ a)
  done

(* Shallow fail: restore the register snapshot, reset the logged
   bindings to unbound and continue at the frame's next alternative.
   No choice-point words are read, nothing was trailed, and the frame
   stays active for the rest of the chain (the shallow retry/trust at
   [sh_alt] updates or deactivates it). *)
let shallow_fail m (w : worker) =
  let sh = w.shallow in
  List.iter (fun a -> wr_auto m w a (Cell.ref_ a)) sh.sh_log;
  sh.sh_log <- [];
  List.iter (fun a -> wr_auto m w a (Cell.ref_ a)) sh.sh_nt_log;
  sh.sh_nt_log <- [];
  let n = sh.sh_nargs in
  for i = 1 to n do
    w.x.(i) <- sh.sh_args.(i)
  done;
  w.nargs <- n;
  w.e <- sh.sh_e;
  w.cp <- sh.sh_cp;
  w.b0 <- sh.sh_b0;
  w.h <- sh.sh_h;
  w.lst <- sh.sh_lst;
  w.p <- sh.sh_alt

(* Commit: the certified clause's test prefix has succeeded, so the
   shallow frame is dead.  Log entries the real trail condition cares
   about are flushed to the trail (the rest would not have been
   trailed by a plain chain either). *)
let commit_shallow m (w : worker) =
  let sh = w.shallow in
  sh.sh_active <- false;
  List.iter (fun a -> if must_trail w a then trail_push m w a) sh.sh_log;
  sh.sh_log <- [];
  (* trail-elided bindings survive the commit untrailed: that is the
     reference the certificate deletes *)
  sh.sh_nt_log <- []

(* Instructions that end a certified clause's test prefix.  Builtins
   deliberately do not commit: arithmetic guards stay inside the
   shallow window so their failure retries the next alternative. *)
let commits = function
  | Instr.Call _ | Instr.Execute _ | Instr.Proceed | Instr.Halt_ok
  | Instr.Neck_cut | Instr.Cut_to _ | Instr.Alloc_parcall _
  | Instr.Push_goal _ | Instr.Par_join | Instr.Goal_done ->
    true
  | Instr.Put_variable _ | Instr.Put_value _ | Instr.Put_unsafe_value _
  | Instr.Put_constant _ | Instr.Put_structure _ | Instr.Put_list _
  | Instr.Get_variable _ | Instr.Get_value _ | Instr.Get_constant _
  | Instr.Get_structure _ | Instr.Get_list _ | Instr.Unify_variable _
  | Instr.Unify_value _ | Instr.Unify_local_value _ | Instr.Unify_constant _
  | Instr.Unify_void _ | Instr.Allocate _ | Instr.Deallocate | Instr.Jump _
  | Instr.Try _ | Instr.Retry _ | Instr.Trust _ | Instr.Switch_on_term _
  | Instr.Switch_on_constant _ | Instr.Switch_on_structure _
  | Instr.Get_level _ | Instr.Builtin _ | Instr.Check_ground _
  | Instr.Check_indep _ | Instr.Check_size _ ->
    false

let maybe_commit m (w : worker) instr =
  if w.shallow.sh_active && commits instr then commit_shallow m w

(* Abandon an active shallow frame without running its alternatives,
   restoring the logged bindings.  Used by the simulator when a goal
   context is torn down. *)
let abandon_shallow m (w : worker) =
  let sh = w.shallow in
  if sh.sh_active then begin
    List.iter (fun a -> wr_auto m w a (Cell.ref_ a)) sh.sh_log;
    sh.sh_log <- [];
    List.iter (fun a -> wr_auto m w a (Cell.ref_ a)) sh.sh_nt_log;
    sh.sh_nt_log <- [];
    sh.sh_active <- false
  end

let fail m (w : worker) =
  if w.shallow.sh_active then shallow_fail m w
  else if w.b = -1 || w.b <= w.barrier then raise (No_more_choices w)
  else begin
    let b = w.b in
    let f off = rd m w ~area:Trace.Area.Choice_point (b + off) in
    let n = Cell.payload (f 0) in
    for i = 1 to n do
      w.x.(i) <- f i
    done;
    w.nargs <- n;
    w.e <- Cell.payload (f (n + 1));
    w.cp <- Cell.payload (f (n + 2));
    let next_alt = Cell.payload (f (n + 4)) in
    untrail_to m w (Cell.payload (f (n + 5)));
    let saved_h = Cell.payload (f (n + 6)) in
    w.h <- saved_h;
    w.hb <- max saved_h w.par_hb;
    w.b0 <- Cell.payload (f (n + 7));
    let saved_lst = Cell.payload (f (n + 8)) in
    w.lst <- saved_lst;
    w.prot_lst <- max saved_lst w.par_prot;
    w.cst <- b + choice_point_words n;
    w.p <- next_alt
  end

(* ------------------------------------------------------------------ *)
(* Registers.                                                         *)

let get_reg m (w : worker) = function
  | Instr.X n -> w.x.(n)
  | Instr.Y n -> rd m w ~area:Trace.Area.Env_pvar (w.e + 3 + n)

let set_reg m (w : worker) r cell =
  match r with
  | Instr.X n -> w.x.(n) <- cell
  | Instr.Y n -> wr m w ~area:Trace.Area.Env_pvar (w.e + 3 + n) cell

(* ------------------------------------------------------------------ *)
(* Term predicates and arithmetic.                                    *)

let functor_cell m w addr =
  match Cell.view (rd_auto m w addr) with
  | Cell.Fun fid -> fid
  | Cell.Ref _ | Cell.Str _ | Cell.Lis _ | Cell.Con _ | Cell.Num _
  | Cell.Raw _ ->
    runtime_error "corrupt structure at address %d" addr

(* The term walks below return the visit count [n] (see [visit]) while
   the walk goes on, and a negative value once its answer is known. *)

(* Ground walk: -1 at the first unbound variable. *)
let rec ground_walk m w r n cell =
  let n = visit m "ground/1" r r n in
  match Cell.view (deref m w cell) with
  | Cell.Ref _ -> -1
  | Cell.Con _ | Cell.Num _ -> n
  | Cell.Lis a ->
    let n = ground_walk m w r n (rd_auto m w a) in
    if n < 0 then n else ground_walk m w r n (rd_auto m w (a + 1))
  | Cell.Str a ->
    let fid = functor_cell m w a in
    ground_args m w r n a 1 (Symbols.functor_arity m.symbols fid)
  | Cell.Fun _ | Cell.Raw _ -> runtime_error "is_ground: raw cell"

and ground_args m w r n a i arity =
  if n < 0 || i > arity then n
  else
    ground_args m w r (ground_walk m w r n (rd_auto m w (a + i))) a (i + 1)
      arity

let is_ground m w cell = ground_walk m w cell 0 cell >= 0

(* Collect the addresses of the unbound variables of a term into
   [tbl]; with [stop], instead return -1 at the first variable already
   in [tbl].  A stopped walk still makes the argument reads of the
   structures it is inside of. *)
let rec vars_walk m w r1 r2 tbl ~stop n cell =
  if n < 0 then n
  else begin
    let n = visit m "indep/2" r1 r2 n in
    match Cell.view (deref m w cell) with
    | Cell.Ref a ->
      if not stop then begin
        Hashtbl.replace tbl a ();
        n
      end
      else if Hashtbl.mem tbl a then -1
      else n
    | Cell.Con _ | Cell.Num _ -> n
    | Cell.Lis a ->
      let n = vars_walk m w r1 r2 tbl ~stop n (rd_auto m w a) in
      vars_walk m w r1 r2 tbl ~stop n (rd_auto m w (a + 1))
    | Cell.Str a ->
      let fid = functor_cell m w a in
      vars_args m w r1 r2 tbl ~stop n a 1 (Symbols.functor_arity m.symbols fid)
    | Cell.Fun _ | Cell.Raw _ -> runtime_error "independent: raw cell"
  end

and vars_args m w r1 r2 tbl ~stop n a i arity =
  if i > arity then n
  else
    vars_args m w r1 r2 tbl ~stop
      (vars_walk m w r1 r2 tbl ~stop n (rd_auto m w (a + i)))
      a (i + 1) arity

(* Goal independence: the two terms share no unbound variable. *)
let independent m w c1 c2 =
  let tbl = Hashtbl.create 16 in
  let n = vars_walk m w c1 c2 tbl ~stop:false 0 c1 in
  vars_walk m w c1 c2 tbl ~stop:true n c2 >= 0

(* Bounded term-size walk for the granularity guard (counting as
   Prolog.Term.size: one per node).  Only whether the size reaches [k]
   matters, so the walk touches at most [k] nodes. *)
let size_at_least m w cell k =
  let count = ref 0 in
  let exception Enough in
  let rec go cell =
    incr count;
    if !count >= k then raise Enough;
    match Cell.view (deref m w cell) with
    | Cell.Ref _ | Cell.Con _ | Cell.Num _ -> ()
    | Cell.Lis a ->
      go (rd_auto m w a);
      go (rd_auto m w (a + 1))
    | Cell.Str a ->
      let fid = functor_cell m w a in
      for i = 1 to Symbols.functor_arity m.symbols fid do
        go (rd_auto m w (a + i))
      done
    | Cell.Fun _ | Cell.Raw _ -> runtime_error "size_at_least: raw cell"
  in
  k <= 0
  ||
  (try
     go cell;
     false
   with Enough -> true)

(* Standard order: Var < Num < Atom < Compound.  The walk returns the
   visit count while the terms are equal, and [lt] or [gt] once they
   differ. *)
let lt = -1
let gt = -2
let order c n = if c < 0 then lt else if c > 0 then gt else n

let rec compare_walk m w r1 r2 n c1 c2 =
  let n = visit m "compare" r1 r2 n in
  let d1 = deref m w c1 in
  let d2 = deref m w c2 in
  if d1 = d2 then n
  else begin
    let rank c =
      match Cell.view c with
      | Cell.Ref _ -> 0
      | Cell.Num _ -> 1
      | Cell.Con _ -> 2
      | Cell.Lis _ | Cell.Str _ -> 3
      | Cell.Fun _ | Cell.Raw _ -> runtime_error "compare: raw cell"
    in
    let k1 = rank d1 and k2 = rank d2 in
    if k1 <> k2 then order (compare k1 k2) n
    else begin
      match (Cell.view d1, Cell.view d2) with
      | Cell.Ref a1, Cell.Ref a2 -> order (compare a1 a2) n
      | Cell.Num i1, Cell.Num i2 -> order (compare i1 i2) n
      | Cell.Con a1, Cell.Con a2 ->
        order
          (compare
             (Symbols.atom_name m.symbols a1)
             (Symbols.atom_name m.symbols a2))
          n
      | (Cell.Lis _ | Cell.Str _), (Cell.Lis _ | Cell.Str _) ->
        let spec c =
          match Cell.view c with
          | Cell.Lis a -> (2, ".", a, true)
          | Cell.Str a ->
            let fid = functor_cell m w a in
            ( Symbols.functor_arity m.symbols fid,
              Symbols.functor_name m.symbols fid,
              a,
              false )
          | Cell.Ref _ | Cell.Con _ | Cell.Num _ | Cell.Fun _ | Cell.Raw _ ->
            assert false
        in
        let n1, f1, a1, l1 = spec d1 in
        let n2, f2, a2, l2 = spec d2 in
        if n1 <> n2 then order (compare n1 n2) n
        else if f1 <> f2 then order (compare f1 f2) n
        else begin
          (* argument base: list pairs start at a, structures at a+1 *)
          let base1 = if l1 then a1 - 1 else a1 in
          let base2 = if l2 then a2 - 1 else a2 in
          compare_args m w r1 r2 n base1 base2 1 n1
        end
      | ( ( Cell.Ref _ | Cell.Num _ | Cell.Con _ | Cell.Lis _ | Cell.Str _
          | Cell.Fun _ | Cell.Raw _ ),
          _ ) ->
        assert false
    end
  end

and compare_args m w r1 r2 n base1 base2 i arity =
  if i > arity then n
  else begin
    let n =
      compare_walk m w r1 r2 n
        (rd_auto m w (base1 + i))
        (rd_auto m w (base2 + i))
    in
    if n < 0 then n else compare_args m w r1 r2 n base1 base2 (i + 1) arity
  end

let compare_terms m w c1 c2 =
  let r = compare_walk m w c1 c2 0 c1 c2 in
  if r = lt then -1 else if r = gt then 1 else 0

(* Every result of [eval_arith] must fit a cell ([Cell.fits]).  A
   product or a left shift can also wrap OCaml's own 63 bits, where the
   range check alone would not see it. *)
let overflow () = runtime_error "integer overflow"

let mul x y =
  let r = x * y in
  if x <> 0 && r / x <> y then overflow () else r

let shift_left x s =
  if s >= Sys.int_size then if x = 0 then 0 else overflow ()
  else begin
    let r = x lsl s in
    if s > 0 && r asr s <> x then overflow () else r
  end

let rec eval_arith m w cell =
  match Cell.view (deref m w cell) with
  | Cell.Num n -> n
  | Cell.Str a ->
    let r = eval_struct m w a in
    if Cell.fits r then r else overflow ()
  | Cell.Con c ->
    runtime_error "not evaluable: %s/0" (Symbols.atom_name m.symbols c)
  | Cell.Ref _ -> runtime_error "is/2: argument insufficiently instantiated"
  | Cell.Lis _ -> runtime_error "is/2: list is not evaluable"
  | Cell.Fun _ | Cell.Raw _ -> runtime_error "eval: raw cell"

and eval_struct m w a =
  let fid = functor_cell m w a in
  let name = Symbols.functor_name m.symbols fid in
  let arity = Symbols.functor_arity m.symbols fid in
  let arg i = eval_arith m w (rd_auto m w (a + i)) in
  match (name, arity) with
  | "+", 2 -> arg 1 + arg 2
  | "-", 2 -> arg 1 - arg 2
  | "*", 2 -> mul (arg 1) (arg 2)
  | "//", 2 | "/", 2 ->
    let d = arg 2 in
    if d = 0 then runtime_error "zero divisor" else arg 1 / d
  | "mod", 2 ->
    let d = arg 2 in
    if d = 0 then runtime_error "zero divisor"
    else begin
      let r = arg 1 mod d in
      if (r < 0 && d > 0) || (r > 0 && d < 0) then r + d else r
    end
  | "rem", 2 -> arg 1 mod arg 2
  | "min", 2 -> min (arg 1) (arg 2)
  | "max", 2 -> max (arg 1) (arg 2)
  | ">>", 2 -> arg 1 asr arg 2
  | "<<", 2 -> shift_left (arg 1) (arg 2)
  | "/\\", 2 -> arg 1 land arg 2
  | "\\/", 2 -> arg 1 lor arg 2
  | "-", 1 -> -arg 1
  | "+", 1 -> arg 1
  | "abs", 1 -> abs (arg 1)
  | "sign", 1 -> compare (arg 1) 0
  | _, _ -> runtime_error "not evaluable: %s/%d" name arity

(* ------------------------------------------------------------------ *)
(* Answer decoding (untraced; used by write/1 and the drivers).       *)

(* Decode a heap term.  A cyclic term (a binding made without occurs
   check) has no finite answer. *)
let decode m _w cell =
  if cyclic m cell then runtime_error "decode: cyclic term";
  let rec decode cell =
    match Cell.view (peek_deref m cell) with
    | Cell.Ref a -> Prolog.Term.Var (Printf.sprintf "_%d" a)
    | Cell.Num n -> Prolog.Term.Int n
    | Cell.Con c -> Prolog.Term.Atom (Symbols.atom_name m.symbols c)
    | Cell.Lis a ->
      Prolog.Term.Struct
        ( ".",
          [ decode (Memory.peek m.mem a); decode (Memory.peek m.mem (a + 1)) ] )
    | Cell.Str a -> begin
      match Cell.view (Memory.peek m.mem a) with
      | Cell.Fun fid ->
        let name = Symbols.functor_name m.symbols fid in
        let arity = Symbols.functor_arity m.symbols fid in
        Prolog.Term.Struct
          (name, List.init arity (fun i -> decode (Memory.peek m.mem (a + 1 + i))))
      | Cell.Ref _ | Cell.Str _ | Cell.Lis _ | Cell.Con _ | Cell.Num _
      | Cell.Raw _ ->
        runtime_error "decode: corrupt structure"
    end
    | Cell.Fun _ | Cell.Raw _ -> runtime_error "decode: raw cell"
  in
  decode cell

(* Encode a ground-or-variable source term onto a worker's heap;
   variables share bindings through [env] (name -> heap address). *)
let rec encode m w env t =
  match t with
  | Prolog.Term.Int n -> Cell.num n
  | Prolog.Term.Atom a -> Cell.con (Symbols.atom m.symbols a)
  | Prolog.Term.Var v -> begin
    match Hashtbl.find_opt env v with
    | Some a -> Cell.ref_ a
    | None ->
      let a = fresh_heap_var m w in
      Hashtbl.add env v a;
      Cell.ref_ a
  end
  | Prolog.Term.Struct (".", [ hd; tl ]) ->
    let c_hd = encode m w env hd in
    let c_tl = encode m w env tl in
    let a = hpush m w c_hd in
    ignore (hpush m w c_tl);
    Cell.lis a
  | Prolog.Term.Struct (f, args) ->
    let cells = List.map (encode m w env) args in
    let fid = Symbols.functor_ m.symbols f (List.length args) in
    let a = hpush m w (Cell.fun_ fid) in
    List.iter (fun c -> ignore (hpush m w c)) cells;
    Cell.str a

(* ------------------------------------------------------------------ *)
(* Builtins.  Each returns [true] on success; [false] triggers fail.  *)

let list_of_cells m w cells =
  List.fold_right
    (fun c acc ->
      let a = hpush m w c in
      ignore (hpush m w acc);
      Cell.lis a)
    cells (Cell.con Symbols.nil)

let exec_builtin m (w : worker) b _arity =
  let a i = w.x.(i) in
  match b with
  | Builtin.True_b -> true
  | Builtin.Fail_b -> false
  | Builtin.Unify -> unify m w (a 1) (a 2)
  | Builtin.Is ->
    let v = eval_arith m w (a 2) in
    unify m w (a 1) (Cell.num v)
  | Builtin.Lt -> eval_arith m w (a 1) < eval_arith m w (a 2)
  | Builtin.Gt -> eval_arith m w (a 1) > eval_arith m w (a 2)
  | Builtin.Le -> eval_arith m w (a 1) <= eval_arith m w (a 2)
  | Builtin.Ge -> eval_arith m w (a 1) >= eval_arith m w (a 2)
  | Builtin.Arith_eq -> eval_arith m w (a 1) = eval_arith m w (a 2)
  | Builtin.Arith_ne -> eval_arith m w (a 1) <> eval_arith m w (a 2)
  | Builtin.Not_unify ->
    (* Trial unification with full trailing, then undo.  Under an
       active shallow frame the trial bindings land in the frame's
       undo log instead of the trail, so mark the log (and tighten the
       snapshot so every binding is logged), undo past the mark, and
       restore. *)
    let saved_hb = w.hb in
    let saved_tr = w.tr in
    let sh = w.shallow in
    let saved_log = sh.sh_log in
    let saved_sh_h = sh.sh_h in
    let saved_sh_lst = sh.sh_lst in
    if sh.sh_active then begin
      sh.sh_h <- w.h;
      sh.sh_lst <- w.lst
    end;
    w.hb <- w.h;
    let ok = unify m w (a 1) (a 2) in
    if sh.sh_active then begin
      let rec undo log =
        if log != saved_log then
          match log with
          | addr :: rest ->
            wr_auto m w addr (Cell.ref_ addr);
            undo rest
          | [] -> ()
      in
      undo sh.sh_log;
      sh.sh_log <- saved_log;
      sh.sh_h <- saved_sh_h;
      sh.sh_lst <- saved_sh_lst
    end;
    untrail_to m w saved_tr;
    w.hb <- saved_hb;
    not ok
  | Builtin.Term_eq -> compare_terms m w (a 1) (a 2) = 0
  | Builtin.Term_ne -> compare_terms m w (a 1) (a 2) <> 0
  | Builtin.Term_lt -> compare_terms m w (a 1) (a 2) < 0
  | Builtin.Term_gt -> compare_terms m w (a 1) (a 2) > 0
  | Builtin.Term_le -> compare_terms m w (a 1) (a 2) <= 0
  | Builtin.Term_ge -> compare_terms m w (a 1) (a 2) >= 0
  | Builtin.Var_p -> Cell.is_ref (deref m w (a 1))
  | Builtin.Nonvar_p -> not (Cell.is_ref (deref m w (a 1)))
  | Builtin.Atom_p -> begin
    match Cell.view (deref m w (a 1)) with
    | Cell.Con _ -> true
    | Cell.Ref _ | Cell.Str _ | Cell.Lis _ | Cell.Num _ | Cell.Fun _
    | Cell.Raw _ ->
      false
  end
  | Builtin.Integer_p -> begin
    match Cell.view (deref m w (a 1)) with
    | Cell.Num _ -> true
    | Cell.Ref _ | Cell.Str _ | Cell.Lis _ | Cell.Con _ | Cell.Fun _
    | Cell.Raw _ ->
      false
  end
  | Builtin.Atomic_p -> begin
    match Cell.view (deref m w (a 1)) with
    | Cell.Con _ | Cell.Num _ -> true
    | Cell.Ref _ | Cell.Str _ | Cell.Lis _ | Cell.Fun _ | Cell.Raw _ -> false
  end
  | Builtin.Compound_p -> begin
    match Cell.view (deref m w (a 1)) with
    | Cell.Str _ | Cell.Lis _ -> true
    | Cell.Ref _ | Cell.Con _ | Cell.Num _ | Cell.Fun _ | Cell.Raw _ -> false
  end
  | Builtin.Ground_p -> is_ground m w (a 1)
  | Builtin.Indep_p -> independent m w (a 1) (a 2)
  | Builtin.Write_t | Builtin.Print_t ->
    Format.printf "%a" Prolog.Pretty.pp (decode m w (a 1));
    true
  | Builtin.Nl ->
    Format.printf "@.";
    true
  | Builtin.Halt_b ->
    m.halted <- true;
    w.status <- Halted;
    true
  | Builtin.Functor_b -> begin
    match Cell.view (deref m w (a 1)) with
    | Cell.Con c ->
      unify m w (a 2) (Cell.con c) && unify m w (a 3) (Cell.num 0)
    | Cell.Num n ->
      unify m w (a 2) (Cell.num n) && unify m w (a 3) (Cell.num 0)
    | Cell.Lis _ ->
      unify m w (a 2) (Cell.con (Symbols.atom m.symbols "."))
      && unify m w (a 3) (Cell.num 2)
    | Cell.Str addr ->
      let fid = functor_cell m w addr in
      let aid, arity = Symbols.functor_def m.symbols fid in
      unify m w (a 2) (Cell.con aid) && unify m w (a 3) (Cell.num arity)
    | Cell.Ref _ -> begin
      (* Construction mode. *)
      match (Cell.view (deref m w (a 2)), Cell.view (deref m w (a 3))) with
      | Cell.Con c, Cell.Num 0 -> unify m w (a 1) (Cell.con c)
      | Cell.Num n, Cell.Num 0 -> unify m w (a 1) (Cell.num n)
      | Cell.Con c, Cell.Num n when n > 0 ->
        let name = Symbols.atom_name m.symbols c in
        if name = "." && n = 2 then begin
          let addr = fresh_heap_var m w in
          ignore (fresh_heap_var m w);
          unify m w (a 1) (Cell.lis addr)
        end
        else begin
          let fid = Symbols.functor_ m.symbols name n in
          let addr = hpush m w (Cell.fun_ fid) in
          for _ = 1 to n do
            ignore (fresh_heap_var m w)
          done;
          unify m w (a 1) (Cell.str addr)
        end
      | _, _ -> runtime_error "functor/3: bad construction arguments"
    end
    | Cell.Fun _ | Cell.Raw _ -> runtime_error "functor/3: raw cell"
  end
  | Builtin.Arg_b -> begin
    match (Cell.view (deref m w (a 1)), Cell.view (deref m w (a 2))) with
    | Cell.Num n, Cell.Str addr ->
      let fid = functor_cell m w addr in
      let arity = Symbols.functor_arity m.symbols fid in
      if n >= 1 && n <= arity then
        unify m w (a 3) (rd_auto m w (addr + n))
      else false
    | Cell.Num n, Cell.Lis addr ->
      if n = 1 then unify m w (a 3) (rd_auto m w addr)
      else if n = 2 then unify m w (a 3) (rd_auto m w (addr + 1))
      else false
    | _, _ -> runtime_error "arg/3: bad arguments"
  end
  | Builtin.Univ -> begin
    match Cell.view (deref m w (a 1)) with
    | Cell.Con _ | Cell.Num _ ->
      unify m w (a 2) (list_of_cells m w [ deref m w (a 1) ])
    | Cell.Lis addr ->
      unify m w (a 2)
        (list_of_cells m w
           [
             Cell.con (Symbols.atom m.symbols ".");
             rd_auto m w addr;
             rd_auto m w (addr + 1);
           ])
    | Cell.Str addr ->
      let fid = functor_cell m w addr in
      let aid, arity = Symbols.functor_def m.symbols fid in
      let args = List.init arity (fun i -> rd_auto m w (addr + 1 + i)) in
      unify m w (a 2) (list_of_cells m w (Cell.con aid :: args))
    | Cell.Ref _ -> begin
      (* Construction: collect the list elements. *)
      let rec elements cell acc =
        match Cell.view (deref m w cell) with
        | Cell.Con c when c = Symbols.nil -> List.rev acc
        | Cell.Lis addr ->
          elements (rd_auto m w (addr + 1)) (rd_auto m w addr :: acc)
        | Cell.Ref _ | Cell.Str _ | Cell.Con _ | Cell.Num _ | Cell.Fun _
        | Cell.Raw _ ->
          runtime_error "=../2: second argument must be a proper list"
      in
      match elements (a 2) [] with
      | [] -> runtime_error "=../2: empty list"
      | [ single ] -> unify m w (a 1) (deref m w single)
      | head :: args -> begin
        match Cell.view (deref m w head) with
        | Cell.Con c ->
          let name = Symbols.atom_name m.symbols c in
          let n = List.length args in
          if name = "." && n = 2 then begin
            match args with
            | [ hd; tl ] ->
              let addr = hpush m w hd in
              ignore (hpush m w tl);
              unify m w (a 1) (Cell.lis addr)
            | _ -> assert false
          end
          else begin
            let fid = Symbols.functor_ m.symbols name n in
            let addr = hpush m w (Cell.fun_ fid) in
            List.iter (fun c -> ignore (hpush m w c)) args;
            unify m w (a 1) (Cell.str addr)
          end
        | Cell.Ref _ | Cell.Str _ | Cell.Lis _ | Cell.Num _ | Cell.Fun _
        | Cell.Raw _ ->
          runtime_error "=../2: list head must be an atom"
      end
    end
    | Cell.Fun _ | Cell.Raw _ -> runtime_error "=../2: raw cell"
  end

(* ------------------------------------------------------------------ *)
(* Choice points.                                                     *)

let push_choice_point m (w : worker) ~next_alt =
  let n = w.nargs in
  let base = w.cst in
  if base + choice_point_words n > Layout.control_limit w.id then
    runtime_error "control stack overflow (PE %d)" w.id;
  let cp_wr off cell = wr m w ~area:Trace.Area.Choice_point (base + off) cell in
  cp_wr 0 (Cell.raw n);
  for i = 1 to n do
    cp_wr i w.x.(i)
  done;
  cp_wr (n + 1) (Cell.raw w.e);
  cp_wr (n + 2) (Cell.raw w.cp);
  cp_wr (n + 3) (Cell.raw w.b);
  cp_wr (n + 4) (Cell.raw next_alt);
  cp_wr (n + 5) (Cell.raw w.tr);
  cp_wr (n + 6) (Cell.raw w.h);
  cp_wr (n + 7) (Cell.raw w.b0);
  cp_wr (n + 8) (Cell.raw w.lst);
  w.b <- base;
  w.cst <- base + choice_point_words n;
  w.hb <- w.h;
  w.prot_lst <- w.lst;
  note_high_water w

(* Discard choice points down to [target] (a saved B value or -1),
   resetting the control-stack top and local-stack protection. *)
let cut_to_level m (w : worker) target =
  if w.b <> target && (target = -1 || w.b > target) then begin
    w.b <- target;
    if target = -1 || target < w.cst_floor then begin
      w.cst <- w.cst_floor;
      w.prot_lst <- max w.lst_floor w.par_prot
    end
    else begin
      let n = Cell.payload (rd m w ~area:Trace.Area.Choice_point target) in
      w.cst <- target + choice_point_words n;
      w.prot_lst <-
        max
          (Cell.payload (rd m w ~area:Trace.Area.Choice_point (target + n + 8)))
          w.par_prot
    end
  end

(* ------------------------------------------------------------------ *)
(* Environments.                                                      *)

let allocate_env m (w : worker) n =
  let base = max w.lst w.prot_lst in
  if base + 3 + n > Layout.local_limit w.id then
    runtime_error "local stack overflow (PE %d)" w.id;
  wr m w ~area:Trace.Area.Env_control base (Cell.raw w.e);
  wr m w ~area:Trace.Area.Env_control (base + 1) (Cell.raw w.cp);
  wr m w ~area:Trace.Area.Env_control (base + 2) (Cell.raw n);
  w.e <- base;
  w.lst <- base + 3 + n;
  note_high_water w

let deallocate_env m (w : worker) =
  w.cp <- Cell.payload (rd m w ~area:Trace.Area.Env_control (w.e + 1));
  let ce = Cell.payload (rd m w ~area:Trace.Area.Env_control w.e) in
  w.lst <- w.e;
  w.e <- ce

(* ------------------------------------------------------------------ *)
(* The sequential instruction semantics.  [w.p] has already been
   advanced past the instruction; control transfers overwrite it.     *)

exception Parallel_instr of Instr.t
(* Raised for RAP-WAM instructions; the parallel simulator intercepts
   them before calling [step_core], the sequential driver treats them
   as an error. *)

let call_entry m (w : worker) fid ~tail =
  m.inferences <- m.inferences + 1;
  match Code.entry m.code fid with
  | None ->
    runtime_error "undefined predicate %s" (Symbols.spec_string m.symbols fid)
  | Some entry ->
    if not tail then w.cp <- w.p;
    w.nargs <- Symbols.functor_arity m.symbols fid;
    w.b0 <- w.b;
    w.p <- entry

(* Run [f] with trailing elided: the certificate says every binding it
   makes is unconditional, so [bind] skips the trail for this one
   instruction. *)
let untrailed (w : worker) f =
  w.no_trail <- true;
  match f () with
  | ok ->
    w.no_trail <- false;
    ok
  | exception e ->
    w.no_trail <- false;
    raise e

(* The cell an [Uncond] get overwrites: the register holds a Ref to an
   unbound depth-0 cell, so no deref read.  A non-Ref contradicts the
   freeness certificate and fails ([-1]). *)
let uncond_target m (w : worker) ai =
  m.deref_skipped <- m.deref_skipped + 1;
  let c = w.x.(ai) in
  if Cell.is_ref c then Cell.payload c
  else begin
    fail m w;
    -1
  end

(* Match a constant's cell against a cell (get_constant, and
   unify_constant in read mode): a variable binds to the constant, and
   any other cell must equal it as a whole word, so an atom never
   matches the integer with the same payload. *)
let match_constant m w c cell =
  let d = deref m w cell in
  if Cell.is_ref d then bind m w (Cell.payload d) c
  else if d <> c then fail m w

(* The label a switch table gives [key] (its first match from entry
   [i] on), else [default]: a loop that allocates nothing. *)
let rec switch_label (tbl : (int * int) array) key default i =
  if i = Array.length tbl then default
  else begin
    let k, l = tbl.(i) in
    if k = key then l else switch_label tbl key default (i + 1)
  end

let step_core m (w : worker) instr =
  match instr with
  (* ---- put ---- *)
  | Instr.Put_variable (Instr.X n, ai, false) ->
    let a = fresh_heap_var m w in
    w.x.(n) <- Cell.ref_ a;
    w.x.(ai) <- Cell.ref_ a
  | Instr.Put_variable (Instr.Y n, ai, false) ->
    let addr = w.e + 3 + n in
    wr m w ~area:Trace.Area.Env_pvar addr (Cell.ref_ addr);
    w.x.(ai) <- Cell.ref_ addr
  | Instr.Put_value (r, ai) -> w.x.(ai) <- get_reg m w r
  | Instr.Put_unsafe_value (y, ai) -> begin
    let v = deref m w (rd m w ~area:Trace.Area.Env_pvar (w.e + 3 + y)) in
    match Cell.view v with
    | Cell.Ref a when Layout.is_local_stack_addr a ->
      let ha = fresh_heap_var m w in
      bind m w a (Cell.ref_ ha);
      w.x.(ai) <- Cell.ref_ ha
    | Cell.Ref _ | Cell.Str _ | Cell.Lis _ | Cell.Con _ | Cell.Num _
    | Cell.Fun _ | Cell.Raw _ ->
      w.x.(ai) <- v
  end
  | Instr.Put_constant (c, ai) -> w.x.(ai) <- c
  | Instr.Put_structure (f, ai) ->
    let a = hpush m w (Cell.fun_ f) in
    w.x.(ai) <- Cell.str a;
    w.mode_write <- true
  | Instr.Put_list ai ->
    w.x.(ai) <- Cell.lis w.h;
    w.mode_write <- true
  (* ---- get ---- *)
  | Instr.Get_variable (r, ai) -> set_reg m w r w.x.(ai)
  | Instr.Get_value (r, ai, Instr.Plain) ->
    if not (unify m w (get_reg m w r) w.x.(ai)) then fail m w
  | Instr.Get_constant (c, ai, false) -> match_constant m w c w.x.(ai)
  | Instr.Get_structure (f, ai, Instr.Plain) -> begin
    match Cell.view (deref m w w.x.(ai)) with
    | Cell.Ref a ->
      let sa = hpush m w (Cell.fun_ f) in
      bind m w a (Cell.str sa);
      w.mode_write <- true
    | Cell.Str sa ->
      if rd_auto m w sa = Cell.fun_ f then begin
        w.s <- sa + 1;
        w.mode_write <- false
      end
      else fail m w
    | Cell.Con _ | Cell.Lis _ | Cell.Num _ | Cell.Fun _ | Cell.Raw _ ->
      fail m w
  end
  | Instr.Get_list (ai, Instr.Plain) -> begin
    match Cell.view (deref m w w.x.(ai)) with
    | Cell.Ref a ->
      bind m w a (Cell.lis w.h);
      w.mode_write <- true
    | Cell.Lis la ->
      w.s <- la;
      w.mode_write <- false
    | Cell.Con _ | Cell.Str _ | Cell.Num _ | Cell.Fun _ | Cell.Raw _ ->
      fail m w
  end
  (* ---- unify ---- *)
  | Instr.Unify_variable r ->
    if w.mode_write then begin
      let a = fresh_heap_var m w in
      set_reg m w r (Cell.ref_ a)
    end
    else begin
      set_reg m w r (rd_auto m w w.s);
      w.s <- w.s + 1
    end
  | Instr.Unify_value r ->
    if w.mode_write then ignore (hpush m w (get_reg m w r))
    else begin
      let sc = rd_auto m w w.s in
      w.s <- w.s + 1;
      if not (unify m w (get_reg m w r) sc) then fail m w
    end
  | Instr.Unify_local_value r ->
    if w.mode_write then begin
      let v = deref m w (get_reg m w r) in
      match Cell.view v with
      | Cell.Ref a when Layout.is_local_stack_addr a ->
        let ha = fresh_heap_var m w in
        bind m w a (Cell.ref_ ha);
        set_reg m w r (Cell.ref_ ha)
      | Cell.Ref _ | Cell.Str _ | Cell.Lis _ | Cell.Con _ | Cell.Num _
      | Cell.Fun _ | Cell.Raw _ ->
        ignore (hpush m w v)
    end
    else begin
      let sc = rd_auto m w w.s in
      w.s <- w.s + 1;
      if not (unify m w (get_reg m w r) sc) then fail m w
    end
  | Instr.Unify_constant c ->
    if w.mode_write then ignore (hpush m w c)
    else begin
      let sc = rd_auto m w w.s in
      w.s <- w.s + 1;
      match_constant m w c sc
    end
  | Instr.Unify_void n ->
    if w.mode_write then
      for _ = 1 to n do
        ignore (fresh_heap_var m w)
      done
    else w.s <- w.s + n
  (* ---- control ---- *)
  | Instr.Allocate n -> allocate_env m w n
  | Instr.Deallocate -> deallocate_env m w
  | Instr.Call fid -> call_entry m w fid ~tail:false
  | Instr.Execute fid -> call_entry m w fid ~tail:true
  | Instr.Proceed -> w.p <- w.cp
  | Instr.Jump l -> w.p <- l
  | Instr.Halt_ok ->
    m.halted <- true;
    w.status <- Halted
  (* ---- choice ---- *)
  | Instr.Try (l, Instr.Deep) ->
    m.cp_created <- m.cp_created + 1;
    push_choice_point m w ~next_alt:w.p;
    w.p <- l
  | Instr.Retry (l, Instr.Deep) ->
    let n = Cell.payload (rd m w ~area:Trace.Area.Choice_point w.b) in
    wr m w ~area:Trace.Area.Choice_point (w.b + n + 4) (Cell.raw w.p);
    w.p <- l
  | Instr.Trust (l, Instr.Deep) ->
    let b = w.b in
    let n = Cell.payload (rd m w ~area:Trace.Area.Choice_point b) in
    let prev = Cell.payload (rd m w ~area:Trace.Area.Choice_point (b + n + 3)) in
    w.b <- prev;
    if prev = -1 || prev < w.cst_floor then begin
      w.prot_lst <- max w.lst_floor w.par_prot
      (* hb keeps its (conservative) value: over-trailing is safe *)
    end
    else begin
      let pn = Cell.payload (rd m w ~area:Trace.Area.Choice_point prev) in
      w.hb <-
        max
          (Cell.payload (rd m w ~area:Trace.Area.Choice_point (prev + pn + 6)))
          w.par_hb;
      w.prot_lst <-
        max
          (Cell.payload (rd m w ~area:Trace.Area.Choice_point (prev + pn + 8)))
          w.par_prot
    end;
    w.cst <- b;
    w.p <- l
  (* ---- determinacy-certified chains ---- *)
  | Instr.Try (l, Instr.Shallow) ->
    let sh = w.shallow in
    if sh.sh_active then
      runtime_error "shallow try: shallow frame already active (PE %d)" w.id;
    let n = w.nargs in
    sh.sh_active <- true;
    sh.sh_alt <- w.p;
    sh.sh_nargs <- n;
    for i = 1 to n do
      sh.sh_args.(i) <- w.x.(i)
    done;
    sh.sh_e <- w.e;
    sh.sh_cp <- w.cp;
    sh.sh_b0 <- w.b0;
    sh.sh_h <- w.h;
    sh.sh_lst <- w.lst;
    sh.sh_log <- [];
    sh.sh_nt_log <- [];
    m.cp_elided <- m.cp_elided + 1;
    w.p <- l
  | Instr.Retry (l, Instr.Shallow) ->
    w.shallow.sh_alt <- w.p;
    w.p <- l
  | Instr.Trust (l, Instr.Shallow) ->
    (* last alternative: from here a failure is a real failure *)
    w.shallow.sh_active <- false;
    w.shallow.sh_log <- [];
    w.shallow.sh_nt_log <- [];
    w.p <- l
  (* ---- indexing ---- *)
  | Instr.Switch_on_term { var_l; con_l; int_l; lis_l; str_l } -> begin
    let d = deref m w w.x.(1) in
    w.x.(1) <- d;
    let target =
      match Cell.view d with
      | Cell.Ref _ -> var_l
      | Cell.Con _ -> con_l
      | Cell.Num _ -> int_l
      | Cell.Lis _ -> lis_l
      | Cell.Str _ -> str_l
      | Cell.Fun _ | Cell.Raw _ -> runtime_error "switch: raw cell"
    in
    if target = -1 then fail m w else w.p <- target
  end
  | Instr.Switch_on_constant (tbl, default) ->
    let l = switch_label tbl (deref m w w.x.(1)) default 0 in
    if l = -1 then fail m w else w.p <- l
  | Instr.Switch_on_structure (tbl, default) -> begin
    match Cell.view (deref m w w.x.(1)) with
    | Cell.Str a ->
      let l = switch_label tbl (functor_cell m w a) default 0 in
      if l = -1 then fail m w else w.p <- l
    | Cell.Ref _ | Cell.Con _ | Cell.Lis _ | Cell.Num _ | Cell.Fun _
    | Cell.Raw _ ->
      fail m w
  end
  (* ---- cut ---- *)
  | Instr.Neck_cut -> cut_to_level m w w.b0
  | Instr.Get_level y ->
    wr m w ~area:Trace.Area.Env_pvar (w.e + 3 + y) (Cell.raw w.b0)
  | Instr.Cut_to y ->
    let target =
      Cell.payload (rd m w ~area:Trace.Area.Env_pvar (w.e + 3 + y))
    in
    cut_to_level m w target
  (* ---- escapes ---- *)
  | Instr.Builtin (b, arity, false) ->
    if not (exec_builtin m w b arity) then fail m w
  | Instr.Builtin (b, arity, true) ->
    if not (untrailed w (fun () -> exec_builtin m w b arity)) then fail m w
  (* ---- binding-certified attributes (lib/bindan) ---- *)
  | Instr.Get_structure (f, ai, Instr.Rigid) -> begin
    m.deref_skipped <- m.deref_skipped + 1;
    match Cell.view w.x.(ai) with
    | Cell.Str sa ->
      if rd_auto m w sa = Cell.fun_ f then begin
        w.s <- sa + 1;
        w.mode_write <- false
      end
      else fail m w
    | Cell.Ref _ | Cell.Con _ | Cell.Lis _ | Cell.Num _ | Cell.Fun _
    | Cell.Raw _ ->
      fail m w
  end
  | Instr.Get_list (ai, Instr.Rigid) -> begin
    m.deref_skipped <- m.deref_skipped + 1;
    match Cell.view w.x.(ai) with
    | Cell.Lis la ->
      w.s <- la;
      w.mode_write <- false
    | Cell.Ref _ | Cell.Con _ | Cell.Str _ | Cell.Num _ | Cell.Fun _
    | Cell.Raw _ ->
      fail m w
  end
  | Instr.Get_value (r, ai, Instr.Rigid) ->
    m.deref_skipped <- m.deref_skipped + 1;
    if Cell.is_ref w.x.(ai) then fail m w
    else if not (unify m w (get_reg m w r) w.x.(ai)) then fail m w
  | Instr.Get_value (r, ai, Instr.Uncond) ->
    if not (untrailed w (fun () -> unify m w (get_reg m w r) w.x.(ai))) then
      fail m w
  | Instr.Get_structure (f, ai, Instr.Uncond) ->
    let a = uncond_target m w ai in
    if a >= 0 then begin
      let sa = hpush m w (Cell.fun_ f) in
      bind_nt m w a (Cell.str sa);
      w.mode_write <- true
    end
  | Instr.Get_list (ai, Instr.Uncond) ->
    let a = uncond_target m w ai in
    if a >= 0 then begin
      bind_nt m w a (Cell.lis w.h);
      w.mode_write <- true
    end
  | Instr.Get_constant (c, ai, true) ->
    let a = uncond_target m w ai in
    if a >= 0 then bind_nt m w a c
  | Instr.Put_variable (Instr.X n, ai, true) ->
    (* uninitialized output: the self-reference init of the fresh heap
       cell is dead (every consumer reaches it through a certified
       Uncond overwrite before any read), so the cell is allocated with
       an untraced store -- the heap write the baseline put_variable
       pays is the reference the attribute deletes *)
    if w.h >= Layout.heap_limit w.id then
      runtime_error "heap overflow (PE %d)" w.id;
    let a = w.h in
    Memory.poke m.mem a (Cell.ref_ a);
    w.h <- w.h + 1;
    if w.h > w.max_h then w.max_h <- w.h;
    w.x.(n) <- Cell.ref_ a;
    w.x.(ai) <- Cell.ref_ a
  | Instr.Put_variable (Instr.Y n, ai, true) ->
    let addr = w.e + 3 + n in
    Memory.poke m.mem addr (Cell.ref_ addr);
    w.x.(ai) <- Cell.ref_ addr
  (* ---- CGE checks ---- *)
  | Instr.Check_ground (r, l) ->
    if not (is_ground m w (get_reg m w r)) then w.p <- l
  | Instr.Check_indep (r1, r2, l) ->
    if not (independent m w (get_reg m w r1) (get_reg m w r2)) then w.p <- l
  | Instr.Check_size (r, k, l) ->
    if not (size_at_least m w (get_reg m w r) k) then w.p <- l
  (* ---- parallel (handled by the RAP-WAM simulator) ---- *)
  | Instr.Alloc_parcall _ | Instr.Push_goal _ | Instr.Par_join
  | Instr.Goal_done ->
    raise (Parallel_instr instr)

(* One sequential step: fetch (traced), count, advance, execute.  The
   commit check runs at fetch time: reaching a committing instruction
   with an active shallow frame means the certified clause's test
   prefix succeeded, so the frame is retired before the instruction
   executes.  The RAP-WAM simulator's own fetch path performs the same
   check (see Rapwam.Sim.step_running). *)
let step m (w : worker) =
  let instr = fetch_traced m w in
  maybe_commit m w instr;
  let op = Instr.opcode instr in
  m.opcode_freq.(op) <- m.opcode_freq.(op) + 1;
  w.instr_count <- w.instr_count + 1;
  m.steps <- m.steps + 1;
  w.p <- w.p + 1;
  step_core m w instr
