(* Probe programs for the seeded binding-analysis defects.

   Each fixture is shaped so the sound analysis refuses the
   interesting certificate while exactly one weakened rule certifies
   it wrongly -- running it under the defect then either corrupts the
   answer set or trips the trace-replay oracle. *)

(* [make/2] is called with a CONDITIONALLY bound argument: [Y] comes
   out of the nondeterministic [pick/1], so its cell predates the live
   choice point.  Sound analysis: the site is dirty (a user call
   precedes it) and pick's dispatch is nondet, [uninit] refused;
   [cond_blind] defect: certified, the [Uncond] [get_structure] overwrites the
   query cell without trailing and the retried iteration re-reads the
   stale binding (oracle: stale-bind). *)
let gen =
  {
    Benchlib.Programs.name = "bd_gen";
    src = "gen(X) :- pick(Y), make(Y, X), check(Y).\npick(1).\npick(2).\nmake(Y, f(Y)).\ncheck(2).\n";
    query = "gen(A)";
    answer_var = "A";
  }

(* An indexed predicate genuinely called with a FREE first argument.
   Sound analysis: the call pattern is not ground, [rigid1] refused;
   [rigid_any] defect: certified, the baseline window binds the free
   cell (oracle: free-arg). *)
let mk =
  {
    Benchlib.Programs.name = "bd_mk";
    src = "q(F) :- mk(F).\nmk(f(1)).\nmk(g(2)).\n";
    query = "q(A)";
    answer_var = "A";
  }

(* [X = f(Y)] where [X]'s window is dirty: the nondeterministic
   [alt/1] precedes the unification, so the bind is conditional and
   must be trailed for the retry.  Sound analysis: no definitely-free
   side (both sides dirty), [nt_builtin] refused; [nt_alias] defect:
   any variable side qualifies, the bind goes untrailed and the retry
   re-reads the stale cell (oracle: stale-bind). *)
let alt =
  {
    Benchlib.Programs.name = "bd_alt";
    src = "p(X) :- alt(Y), X = f(Y), bad(Y).\nalt(1).\nalt(2).\nbad(2).\n";
    query = "p(A)";
    answer_var = "A";
  }

(* [id(A, A)] reads its second argument before writing it (get_value
   dereferences both sides), so [e/1]'s call may NOT pass [Y]
   uninitialized.  Sound analysis: the repeated head variable refuses
   the shape; [uninit_escape] defect: every first-occurrence put
   compiles to an [uncond] [put_variable] and the baseline window reads the
   never-initialized cell (oracle: uninit-read). *)
let esc =
  {
    Benchlib.Programs.name = "bd_esc";
    src = "e(X) :- id(X, Y), Y = 1.\nid(A, A).\n";
    query = "e(A)";
    answer_var = "A";
  }

let all = [ gen; mk; alt; esc ]
