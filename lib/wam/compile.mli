(** Prolog-to-WAM compiler.

    Standard WAM compilation: chunk-based permanent-variable analysis
    (head and first goal share a chunk; a conditional CGE's arms are
    separate chunks because the fallback calls them sequentially),
    argument/temporary register allocation with scratch reuse,
    first-argument indexing (switch_on_term, constant/structure
    sub-switches with variable-clause buckets, try/retry/trust
    chains), last call optimization, neck and deep cut, conservative
    unsafe-value handling.

    RAP-WAM extensions: a CGE compiles to its run-time checks (jumping
    to a compiled sequential fallback when they fail), an
    alloc_parcall, push_goal for goals 2..k, an inline call of the
    first goal, and a par_join whose address is patched into the
    alloc. *)

exception Error of string

val halt_addr : int
(** Address of the query-success return point (instruction 0). *)

val goal_done_addr : int
(** Return point of parallel goals (instruction 1). *)

type det_plan = {
  det_certify :
    db:Prolog.Database.t ->
    pred:string * int ->
    bucket:string ->
    Prolog.Database.clause list ->
    bool;
      (** Asked once per multi-clause chain, with the alternatives in
          chain order.  Answering [true] makes the compiler emit the
          chain with the [Shallow] attribute — choice-point free —
          so the answer must prove that every non-last alternative
          either leads with a cut or is mutually exclusive with all
          later ones (see {!Detan.Exclusion}). *)
  det_dead_var : string * int -> bool;
      (** [true] when the first argument is provably bound at every
          call: the switch_on_term variable-dispatch chain is dead and
          compiles to fail instead of being emitted. *)
  det_orphan_sabotage : bool;
      (** Seeded defect: head certified chains with a shallow retry
          instead of a try (caught by the wamlint orphan-chain rule). *)
}
(** Determinacy plan supplied by lib/detan; [det_certify] is trusted
    blindly, the dynamic oracle audits it against traces. *)

type arg_cert =
  | Cert_none
  | Cert_rigid
      (** always bound with dereference depth 0 at the head: the
          [Rigid] gets skip the deref loop *)
  | Cert_uninit
      (** always a free first-occurrence variable whose binding is
          unconditional: the [Uncond] term gets (and the atomic gets
          with the [uncond] flag) bind directly with the trail check
          elided *)
  | Cert_value_nt
      (** repeat-variable argument position in a program certified
          free of live choice points: the head [get_value] keeps its
          full unification semantics but elides every trail test and
          write ([get_value] with [Uncond]) *)

type bind_plan = {
  bind_head : pred:string * int -> arg:int -> arg_cert;
      (** Instantiation certificate for one head argument position;
          applied to every clause of the predicate, so the certificate
          must hold across all of them (and [Cert_uninit] additionally
          requires every multi-clause chain reaching the head to be
          determinacy-certified — a shallow retry restores elided
          bindings, a deep backtrack cannot). *)
  bind_uninit : callee:string * int -> arg:int -> bool;
      (** [true] when the callee's argument is certified uninitialized
          output: a first-occurrence variable put compiles to a
          [put_variable] with the [uncond] flag (untraced
          self-reference). *)
  bind_builtin : pred:string * int -> Builtin.t -> bool;
      (** [true] when every occurrence of the builtin in the
          predicate's clause bodies only makes certified-unconditional
          bindings: those sites compile with the [uncond] flag.  Only =/2 and
          is/2 are eligible (enforced by the wamlint [nt-builtin]
          rule). *)
}
(** Binding/instantiation plan supplied by lib/bindan.  It only sets
    instruction attributes, so the code equals a plan-free compilation
    of the same database once {!Instr.plain} is applied — the
    lib/bindan trace-replay oracle relies on that to locate and audit
    the certified sites. *)

type chain_info = {
  ci_pred : string * int;
  ci_bucket : string;
      (** ["seq"] (non-indexed), ["var"], ["lis"], ["con"], ["int"],
          ["str"] or ["default"] (unknown-key fallback). *)
  ci_start : int;  (** address of the (deep or shallow) try *)
  ci_alts : int;
  ci_det : bool;
  ci_clauses : int list;
      (** indices into [Database.clauses db ci_pred], in chain order *)
}
(** One emitted multi-alternative chain, logged for elision statistics
    and for the trace-replay soundness oracle. *)

(** {1 Incremental compilation}

    A database image compiles its predicates once; each query is then
    compiled onto a copy of the image's code area.  The one-instruction
    predicates of builtin parallel arms are emitted after every other
    predicate, query included, exactly as {!compile_db} emits them. *)

type arms
(** The builtin arms met so far whose predicates are not yet emitted. *)

val start : unit -> Code.t * arms
(** A code area holding only the two return points, and no arms. *)

val compile_predicates :
  ?parallel:bool ->
  ?det:det_plan ->
  ?bind:bind_plan ->
  ?chains:chain_info list ref ->
  Symbols.t ->
  Code.t ->
  arms ->
  Prolog.Database.t ->
  (string * int) list ->
  arms
(** Compile the listed predicates of the database onto the end of the
    code area, in list order; the arms they meet join the pending ones.
    [parallel = false] flattens CGEs into plain conjunctions (the
    sequential WAM baseline).  [det] enables determinacy-driven
    choice-point elision; [bind] enables binding-certified instruction
    specialization; [chains] accumulates a log of every emitted try
    chain (in reverse emission order). *)

val finish : Code.t -> arms -> unit
(** Emit the pending arms' predicates. *)

val compile_db : ?parallel:bool -> Symbols.t -> Prolog.Database.t -> Code.t
(** Compile every predicate with no plans: {!start},
    {!compile_predicates} over {!Prolog.Database.predicates},
    {!finish}.  [parallel] is as for {!compile_predicates}. *)
