(** Sequential WAM driver: runs a compiled program on one worker to
    its first solution.  This is the paper's "WAM" baseline. *)

type result =
  | Success of (string * Prolog.Term.t) list
      (** bindings of the query variables *)
  | Failure

val run :
  ?sink:Trace.Sink.t -> ?max_steps:int -> Program.t -> result * Machine.t
(** Execute the program's query to its first solution; the machine is
    returned for statistics inspection. *)

val run_all :
  ?max_solutions:int -> Program.t ->
  (string * Prolog.Term.t) list list * Machine.t
(** Enumerate every solution (or the first [max_solutions]) by
    failure-driving an untraced machine.  Sequential only: the
    parallel machine commits CGEs at the join (first-solution
    semantics). *)

val solve :
  ?max_steps:int -> src:string -> query:string -> unit ->
  result * Machine.t
(** Parse, compile sequentially ([parallel = false]) and {!run}. *)

val solve_all :
  ?max_solutions:int -> src:string -> query:string -> unit ->
  (string * Prolog.Term.t) list list * Machine.t

(** {1 Driver plumbing} (shared with the parallel simulator) *)

val seed_query : Machine.t -> Machine.worker -> Program.t -> int list
(** Seed A1..Ak with fresh heap variables for the query variables, set
    the entry point, and return the variables' heap addresses. *)

val decode_answer :
  Machine.t -> Machine.worker -> Program.t -> int list ->
  (string * Prolog.Term.t) list
