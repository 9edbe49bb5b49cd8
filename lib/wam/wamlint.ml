(* Static verifier over compiled WAM/RAP-WAM code: a forward dataflow
   analysis from every predicate entry.  See the .mli for the rule
   catalogue.  The abstract state mirrors what the emulator guarantees
   at each point: which X/A registers and Y slots are defined, the
   environment, the open structure context, and the open parcall. *)

module IS = Set.Make (Int)

type diag = { addr : int; pred : string; rule : string; message : string }

let pp_diag fmt d =
  Format.fprintf fmt "%4d  [%s] %s: %s" d.addr d.pred d.rule d.message

(* Maximum X register the emulator's bank holds (exec.ml worker). *)
let x_bank = 4096

type env_state = No_env | Env of int

type state = {
  xs : IS.t; (* defined X/A registers *)
  ys : IS.t; (* defined Y slots *)
  levels : IS.t; (* Y slots holding a level saved by get_level *)
  env : env_state;
  nargs : int; (* registers a choice point would save/restore *)
  in_struct : bool; (* a get/put structure opened a unify context *)
  parcall : (int * IS.t) option; (* (pushed-goal count, slots seen) *)
  builtin_only : bool;
      (* the path since [allocate] has run only builtins and data
         instructions -- no [call] that could justify keeping the
         frame live.  Fuels the env-drift rule. *)
  in_chain : bool;
      (* the textually preceding instruction on this path was a
         try/retry (deep or shallow), i.e. a live alternative frame
         covers the next chain instruction.  Fuels the
         orphan-chain rule: a retry/trust reached on a path without
         it would pop or update a choice point nobody pushed. *)
}

let entry_state ~nargs =
  {
    xs =
      List.fold_left (fun s i -> IS.add i s) IS.empty
        (List.init nargs (fun i -> i + 1));
    ys = IS.empty;
    levels = IS.empty;
    env = No_env;
    nargs;
    in_struct = false;
    parcall = None;
    builtin_only = false;
    in_chain = false;
  }

let equal_state a b =
  IS.equal a.xs b.xs && IS.equal a.ys b.ys
  && IS.equal a.levels b.levels && a.env = b.env
  && a.nargs = b.nargs && a.in_struct = b.in_struct
  && a.builtin_only = b.builtin_only
  && a.in_chain = b.in_chain
  && (match (a.parcall, b.parcall) with
     | None, None -> true
     | Some (k1, s1), Some (k2, s2) -> k1 = k2 && IS.equal s1 s2
     | Some _, None | None, Some _ -> false)

(* Join of two states reaching the same address.  Definedness merges
   by intersection; structural components (env size, nargs, parcall)
   must agree -- a mismatch is itself reported by the caller. *)
let merge_state a b =
  {
    xs = IS.inter a.xs b.xs;
    ys = IS.inter a.ys b.ys;
    levels = IS.inter a.levels b.levels;
    env = a.env;
    nargs = a.nargs;
    in_struct = a.in_struct && b.in_struct;
    (* any builtin-only path reaching the join keeps the drift alarm
       armed, so a leak reachable through such a path is still seen *)
    builtin_only = a.builtin_only || b.builtin_only;
    (* any chain-less path reaching a retry/trust must be reported *)
    in_chain = a.in_chain && b.in_chain;
    parcall =
      (match (a.parcall, b.parcall) with
      | Some (k, s1), Some (_, s2) -> Some (k, IS.inter s1 s2)
      | _, _ -> a.parcall);
  }

let structural_agree a b =
  a.env = b.env && a.nargs = b.nargs
  && (match (a.parcall, b.parcall) with
     | None, None -> true
     | Some (k1, _), Some (k2, _) -> k1 = k2
     | Some _, None | None, Some _ -> false)

let show i = Format.asprintf "%a" Instr.pp i

let check symbols code =
  let len = Code.length code in
  let diags : (int * string, diag) Hashtbl.t = Hashtbl.create 16 in
  let report ~addr ~pred ~rule fmt =
    Printf.ksprintf
      (fun message ->
        let key = (addr, rule ^ ":" ^ message) in
        if not (Hashtbl.mem diags key) then
          Hashtbl.add diags key { addr; pred; rule; message })
      fmt
  in
  let states : (int, state) Hashtbl.t = Hashtbl.create 256 in
  let preds : (int, string) Hashtbl.t = Hashtbl.create 256 in
  let worklist = Queue.create () in
  let schedule ~pred addr st =
    if addr < 0 || addr >= len then
      report ~addr ~pred ~rule:"bad-target" "control target %d out of code"
        addr
    else begin
      if not (Hashtbl.mem preds addr) then Hashtbl.replace preds addr pred;
      match Hashtbl.find_opt states addr with
      | None ->
        Hashtbl.replace states addr st;
        Queue.add addr worklist
      | Some old ->
        if not (structural_agree old st) then
          report ~addr ~pred ~rule:"merge-mismatch"
            "conflicting environment/parcall state at control-flow join";
        let merged = merge_state old st in
        if not (equal_state old merged) then begin
          Hashtbl.replace states addr merged;
          Queue.add addr worklist
        end
    end
  in
  (* ---- structural pre-pass: retry/trust must continue a chain.
     Deep and shallow chains may not mix: the shallow frame and the
     choice point have different layouts. ---- *)
  for addr = 0 to len - 1 do
    match Code.fetch code addr with
    | (Instr.Retry (_, chain) | Instr.Trust (_, chain)) as i ->
      let chained =
        addr > 0
        &&
        match Code.fetch code (addr - 1) with
        | Instr.Try (_, c) | Instr.Retry (_, c) -> c = chain
        | _ -> false
      in
      if not chained then
        report ~addr ~pred:"" ~rule:"broken-chain"
          "%s not preceded by a try/retry of the same chain" (show i)
    | _ -> ()
  done;
  (* ---- dataflow ---- *)
  let run addr st =
    let pred =
      match Hashtbl.find_opt preds addr with Some p -> p | None -> ""
    in
    let report rule fmt = report ~addr ~pred ~rule fmt in
    let use_x st n =
      if n < 0 || n >= x_bank then
        report "bad-register" "X%d outside the register bank" n
      else if not (IS.mem n st.xs) then
        report "use-before-def" "X%d read before it is defined" n
    in
    let def_x st n =
      if n < 0 || n >= x_bank then begin
        report "bad-register" "X%d outside the register bank" n;
        st
      end
      else { st with xs = IS.add n st.xs }
    in
    let use_y st y =
      (match st.env with
      | No_env -> report "no-env" "Y%d read with no environment allocated" y
      | Env n ->
        if y < 0 || y >= n then
          report "bad-env-slot" "Y%d outside the %d-slot environment" y n
        else if not (IS.mem y st.ys) then
          report "use-before-def" "Y%d read before it is defined" y);
      ()
    in
    let def_y st y =
      match st.env with
      | No_env ->
        report "no-env" "Y%d written with no environment allocated" y;
        st
      | Env n ->
        if y < 0 || y >= n then begin
          report "bad-env-slot" "Y%d outside the %d-slot environment" y n;
          st
        end
        (* an ordinary write clobbers any level the slot held *)
        else { st with ys = IS.add y st.ys; levels = IS.remove y st.levels }
    in
    let use_reg st = function
      | Instr.X n -> use_x st n
      | Instr.Y y -> use_y st y
    in
    let def_reg st = function
      | Instr.X n -> def_x st n
      | Instr.Y y -> def_y st y
    in
    let use_args st arity =
      for i = 1 to arity do
        use_x st i
      done
    in
    let exit_struct st = { st with in_struct = false } in
    (* CGE conditions decide whether the parcall exists at all, so a
       check reached with the frame already allocated jumps to an
       else-branch that cannot unwind it *)
    let in_parcall_check st name =
      if st.parcall <> None then
        report "parcall-check"
          "%s inside an open parcall region: the else-branch cannot \
           unwind the frame" name
    in
    let need_struct st =
      if not st.in_struct then
        report "stray-unify" "unify instruction outside a structure context"
    in
    (* most instructions fall through *)
    let next st = [ (addr + 1, st) ] in
    let instr = Code.fetch code addr in
    (* shared-write discipline, from the per-instruction access
       metadata: writes to the cross-PE coordination areas are only
       legal between alloc_parcall (which creates the frame being
       written) and par_join.  goal_done writes them too, but through
       the stolen goal's check-in protocol, outside any frame the
       parent's code region shows. *)
    (match instr with
    | Instr.Alloc_parcall _ | Instr.Goal_done -> ()
    | i ->
      if st.parcall = None then
        (* only the directions are read: any arity will do *)
        let entries = Access.of_instr ~arity:0 i in
        List.iter
          (fun area ->
            if Access.may entries area Trace.Ref_record.Write then
              report "shared-write-unframed"
                "%s writes %s outside an open parcall region" (show i)
                (Trace.Area.name area))
          Trace.Area.[ Parcall_count; Parcall_global; Goal_frame ]);
    (* orphan-chain: a mid-chain instruction reached on a path whose
       predecessor was not the matching try/retry — the frame it would
       update or pop was never pushed (the shape a buggy chain rewrite
       leaves behind) *)
    (match instr with
    | Instr.Retry _ | Instr.Trust _ ->
      if not st.in_chain then
        report "orphan-chain"
          "%s reachable with no live preceding try on some path" (show instr)
    | _ -> ());
    let st = { st with in_chain = false } in
    match instr with
    (* ---- put group ---- *)
    | Instr.Put_variable (r, a, _) ->
      let st = exit_struct st in
      next (def_x (def_reg st r) a)
    | Instr.Put_value (r, a) ->
      let st = exit_struct st in
      use_reg st r;
      next (def_x st a)
    | Instr.Put_unsafe_value (y, a) ->
      let st = exit_struct st in
      use_y st y;
      next (def_x st a)
    | Instr.Put_constant (_, a) -> next (def_x (exit_struct st) a)
    | Instr.Put_structure (_, a) | Instr.Put_list a ->
      next { (def_x st a) with in_struct = true }
    (* ---- get group ---- *)
    | Instr.Get_variable (r, a) ->
      let st = exit_struct st in
      use_x st a;
      next (def_reg st r)
    | Instr.Get_value (r, a, _) ->
      let st = exit_struct st in
      use_reg st r;
      use_x st a;
      next st
    | Instr.Get_constant (_, a, _) ->
      let st = exit_struct st in
      use_x st a;
      next st
    | Instr.Get_structure (_, a, _) | Instr.Get_list (a, _) ->
      use_x st a;
      next { st with in_struct = true }
    (* ---- unify group ---- *)
    | Instr.Unify_variable r ->
      need_struct st;
      next (def_reg st r)
    | Instr.Unify_value r | Instr.Unify_local_value r ->
      need_struct st;
      use_reg st r;
      next st
    | Instr.Unify_constant _ | Instr.Unify_void _ ->
      need_struct st;
      next st
    (* ---- control ---- *)
    | Instr.Allocate n ->
      let st = exit_struct st in
      if n < 0 then report "bad-env-size" "allocate %d" n;
      (match st.env with
      | Env _ -> report "double-allocate" "environment already allocated"
      | No_env -> ());
      next
        {
          st with
          env = Env n;
          ys = IS.empty;
          levels = IS.empty;
          builtin_only = true;
        }
    | Instr.Deallocate ->
      let st = exit_struct st in
      (match st.env with
      | No_env -> report "no-env" "deallocate with no environment"
      | Env _ -> ());
      (if addr + 1 < len then
         match Code.fetch code (addr + 1) with
         | Instr.Execute _ | Instr.Proceed -> ()
         | _ ->
           report "dangling-frame"
             "deallocate not immediately followed by execute/proceed");
      next
        {
          st with
          env = No_env;
          ys = IS.empty;
          levels = IS.empty;
          builtin_only = false;
        }
    | Instr.Call fid ->
      let st = exit_struct st in
      let arity = Symbols.functor_arity symbols fid in
      use_args st arity;
      if Code.entry code fid = None then
        report "undefined-predicate" "call to %s with no code entry"
          (Symbols.spec_string symbols fid);
      (* the callee clobbers the X bank; Y slots survive *)
      next { st with xs = IS.empty; builtin_only = false }
    | Instr.Execute fid ->
      let st = exit_struct st in
      let arity = Symbols.functor_arity symbols fid in
      use_args st arity;
      if Code.entry code fid = None then
        report "undefined-predicate" "execute of %s with no code entry"
          (Symbols.spec_string symbols fid);
      (match st.env with
      | Env n ->
        report "frame-leak" "execute with an environment allocated";
        if st.builtin_only then
          report "env-drift"
            "%d-slot environment reaches execute through a builtin-only \
             path (allocate with no matching deallocate)"
            n
      | No_env -> ());
      (match st.parcall with
      | Some _ -> report "open-parcall" "execute inside a parcall region"
      | None -> ());
      []
    | Instr.Proceed ->
      (match st.env with
      | Env n ->
        report "frame-leak" "proceed with an environment allocated";
        if st.builtin_only then
          report "env-drift"
            "%d-slot environment reaches proceed through a builtin-only \
             path (allocate with no matching deallocate)"
            n
      | No_env -> ());
      (match st.parcall with
      | Some _ -> report "open-parcall" "proceed inside a parcall region"
      | None -> ());
      []
    | Instr.Jump l -> [ (l, exit_struct st) ]
    | Instr.Halt_ok -> []
    (* ---- choice ---- *)
    | Instr.Try (l, chain) | Instr.Retry (l, chain) ->
      let st = exit_struct st in
      (* the chain continues; the target runs with A1..An restored *)
      (if addr + 1 < len then
         match Code.fetch code (addr + 1) with
         | (Instr.Retry (_, c) | Instr.Trust (_, c)) when c = chain -> ()
         | _ ->
           report "broken-chain"
             "%s not followed by a retry/trust of the same chain" (show instr));
      [
        (l, entry_state ~nargs:st.nargs);
        (addr + 1, { st with in_chain = true });
      ]
    | Instr.Trust (l, _) -> [ (l, entry_state ~nargs:(exit_struct st).nargs) ]
    (* ---- indexing ---- *)
    | Instr.Switch_on_term { var_l; con_l; int_l; lis_l; str_l } ->
      let st = exit_struct st in
      use_x st 1;
      List.filter_map
        (fun l -> if l = -1 then None else Some (l, st))
        [ var_l; con_l; int_l; lis_l; str_l ]
    | Instr.Switch_on_constant (tbl, d) | Instr.Switch_on_structure (tbl, d) ->
      let st = exit_struct st in
      use_x st 1;
      let targets = d :: List.map snd (Array.to_list tbl) in
      List.filter_map
        (fun l -> if l = -1 then None else Some (l, st))
        targets
    (* ---- cut ---- *)
    | Instr.Neck_cut ->
      if st.parcall <> None then
        report "parcall-cut"
          "neck_cut inside an open parcall region would discard sibling \
           goals without the kill protocol";
      next (exit_struct st)
    | Instr.Get_level y ->
      let st = def_y (exit_struct st) y in
      next { st with levels = IS.add y st.levels }
    | Instr.Cut_to y ->
      let st = exit_struct st in
      use_y st y;
      if st.parcall <> None then
        report "parcall-cut"
          "cut_to Y%d inside an open parcall region would discard sibling \
           goals without the kill protocol" y;
      (* trail discipline: the slot must hold a level saved by
         get_level on every path, or the cut would unwind the trail
         to a garbage mark *)
      (match st.env with
      | Env n when y >= 0 && y < n && IS.mem y st.ys ->
        if not (IS.mem y st.levels) then
          report "trail-discipline"
            "cut_to Y%d: slot does not hold a level saved by get_level" y
      | _ -> ());
      next st
    (* ---- escapes ---- *)
    | Instr.Builtin (b, n, uncond) ->
      let st = exit_struct st in
      use_args st n;
      (* the trail-elision certificate only covers builtins whose
         bindings the binding analysis can see: =/2 and is/2.  Anything
         else with the flag is a compiler-bridge bug (the not-unify
         trial-undo protocol in particular must never run untrailed) *)
      if uncond && b <> Builtin.Unify && b <> Builtin.Is then
        report "nt-builtin" "%s: only =/2 and is/2 may run with trailing elided"
          (show instr);
      next st
    (* ---- RAP-WAM ---- *)
    | Instr.Check_ground (r, l) ->
      let st = exit_struct st in
      use_reg st r;
      in_parcall_check st "check_ground";
      if l < 0 || l >= len then
        report "bad-target" "check else-label %d out of code" l;
      [ (addr + 1, st); (l, st) ]
    | Instr.Check_indep (r1, r2, l) ->
      let st = exit_struct st in
      use_reg st r1;
      use_reg st r2;
      in_parcall_check st "check_indep";
      if l < 0 || l >= len then
        report "bad-target" "check else-label %d out of code" l;
      [ (addr + 1, st); (l, st) ]
    | Instr.Check_size (r, k, l) ->
      let st = exit_struct st in
      use_reg st r;
      in_parcall_check st "check_size";
      if k < 0 then report "bad-size" "check_size bound %d negative" k;
      if l < 0 || l >= len then
        report "bad-target" "check else-label %d out of code" l;
      [ (addr + 1, st); (l, st) ]
    | Instr.Alloc_parcall (k, join) ->
      let st = exit_struct st in
      if k < 0 then report "bad-parcall" "negative pushed-goal count %d" k;
      (if join < 0 || join >= len then
         report "bad-join" "parcall join %d out of code" join
       else
         match Code.fetch code join with
         | Instr.Par_join -> ()
         | i ->
           report "bad-join" "parcall join %d is %s, not par_join" join
             (show i));
      (match st.parcall with
      | Some _ -> report "open-parcall" "alloc_parcall inside a parcall"
      | None -> ());
      next { st with parcall = Some (k, IS.empty) }
    | Instr.Push_goal (slot, fid, arity) ->
      let st = exit_struct st in
      use_args st arity;
      if Symbols.functor_arity symbols fid <> arity then
        report "bad-parcall" "push_goal arity %d disagrees with %s" arity
          (Symbols.spec_string symbols fid);
      if Code.entry code fid = None then
        report "undefined-predicate" "pushed goal %s has no code entry"
          (Symbols.spec_string symbols fid);
      (match st.parcall with
      | None ->
        report "bad-parcall" "push_goal outside an alloc_parcall region";
        next st
      | Some (k, seen) ->
        if slot < 0 || slot >= k then
          report "bad-parcall" "goal slot %d outside 0..%d" slot (k - 1);
        if IS.mem slot seen then
          report "bad-parcall" "goal slot %d pushed twice" slot;
        next { st with parcall = Some (k, IS.add slot seen) })
    | Instr.Par_join -> begin
      match st.parcall with
      | None ->
        report "bad-parcall" "par_join without alloc_parcall";
        next st
      | Some (k, seen) ->
        if IS.cardinal seen <> k then
          report "bad-parcall" "parcall joined with %d of %d goals pushed"
            (IS.cardinal seen) k;
        (* the parallel goals ran on arbitrary PEs: X bank is dead *)
        next { st with parcall = None; xs = IS.empty }
    end
    | Instr.Goal_done -> []
  in
  (* Seed: the fixed return points, then every predicate entry. *)
  schedule ~pred:"$halt" Compile.halt_addr (entry_state ~nargs:0);
  schedule ~pred:"$goal_done" Compile.goal_done_addr (entry_state ~nargs:0);
  let entries = ref [] in
  Code.iter_entries code (fun fid addr ->
      entries := (fid, addr) :: !entries);
  List.iter
    (fun (fid, addr) ->
      let nargs = Symbols.functor_arity symbols fid in
      schedule ~pred:(Symbols.spec_string symbols fid) addr
        (entry_state ~nargs))
    (List.sort compare !entries);
  while not (Queue.is_empty worklist) do
    let addr = Queue.pop worklist in
    match Hashtbl.find_opt states addr with
    | None -> ()
    | Some st ->
      let pred =
        match Hashtbl.find_opt preds addr with Some p -> p | None -> ""
      in
      List.iter (fun (a, st') -> schedule ~pred a st') (run addr st)
  done;
  (* ---- reachability ---- *)
  for addr = 0 to len - 1 do
    if not (Hashtbl.mem states addr) then
      report ~addr ~pred:"" ~rule:"unreachable"
        "instruction not reachable from any entry"
  done;
  Hashtbl.fold (fun _ d acc -> d :: acc) diags []
  |> List.sort (fun a b -> compare (a.addr, a.rule) (b.addr, b.rule))

let check_program (p : Program.t) = check p.Program.symbols p.Program.code
