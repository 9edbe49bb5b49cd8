(* Turn an analysis result into the compiler's {!Wam.Compile.bind_plan}.

   Head-argument precedence: an uninit certificate beats rigid (the
   [Uncond] gets skip both the deref loop and the trail machinery), rigid
   applies to the indexed first argument only (the switch has already
   dereferenced it), and [Cert_value_nt] is only consulted by the
   compiler at repeat-variable positions, so returning it broadly for
   choice-point-free programs is harmless elsewhere.

   The two flags implement seeded defects that weaken the plan layer
   itself rather than the analysis: [uninit_escape] certifies every
   first-occurrence variable put as uninitialized output, and
   [wrong_builtin] extends the no-trail builtin certificate to an
   ineligible builtin (caught by the wamlint [nt-builtin] rule). *)

type t = {
  plan : Wam.Compile.bind_plan;
  n_uninit : int;
  n_rigid : int;
  n_value_nt : int;
  n_nt_builtin : int;
}

let of_result ?(uninit_escape = false) ?(wrong_builtin = false)
    (r : Absint.result) =
  let bind_head ~pred ~arg =
    if r.Absint.uninit pred arg then Wam.Compile.Cert_uninit
    else if arg = 1 && r.Absint.rigid1 pred then Wam.Compile.Cert_rigid
    else if r.Absint.value_nt pred arg then Wam.Compile.Cert_value_nt
    else Wam.Compile.Cert_none
  in
  let bind_uninit ~callee ~arg = uninit_escape || r.Absint.uninit callee arg in
  let bind_builtin ~pred b =
    r.Absint.nt_builtin pred b
    || (wrong_builtin && b = Wam.Builtin.Le)
  in
  let n_uninit = ref 0 and n_rigid = ref 0 and n_value_nt = ref 0 in
  let n_nt_builtin = ref 0 in
  List.iter
    (fun p ->
      for j = 1 to snd p do
        match bind_head ~pred:p ~arg:j with
        | Wam.Compile.Cert_uninit -> incr n_uninit
        | Wam.Compile.Cert_rigid -> incr n_rigid
        | Wam.Compile.Cert_value_nt -> incr n_value_nt
        | Wam.Compile.Cert_none -> ()
      done;
      List.iter
        (fun b -> if r.Absint.nt_builtin p b then incr n_nt_builtin)
        [ Wam.Builtin.Unify; Wam.Builtin.Is ])
    r.Absint.preds;
  {
    plan = { Wam.Compile.bind_head; bind_uninit; bind_builtin };
    n_uninit = !n_uninit;
    n_rigid = !n_rigid;
    n_value_nt = !n_value_nt;
    n_nt_builtin = !n_nt_builtin;
  }
