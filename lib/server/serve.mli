(** One compiled database, one request at a time.

    A server holds one loaded database (source text), a static cost
    analysis of it, and the database compiled once into a
    {!Wam.Program.image}.  Every execution compiles only its query
    onto a workspace of the image and runs it on a reset machine;
    after its answers are read, both are released for the next
    execution ({!Wam.Program.release}, {!Wam.Machine.release}).  The
    image's workspaces, the machine pool and the optional memo table
    (with its sharded locks) are the shared mutable state, and each is
    locked, so worker domains share the server.  A query is answered
    with its first solution, on either engine.

    This module runs one request.  {!Supervise.serve} is the batch
    server: it admits each request through {!admit}, {!lookup_hit},
    {!verdict_of} and {!compute}, drives the lanes and keeps the
    counters.  A request's text is parsed once, by {!admit}: its memo
    key, its verdict and its compiled query all come from that term. *)

type config = {
  src : string;  (** database source text *)
  pes : int;  (** 1 = sequential WAM; >1 = RAP-WAM simulation *)
  workers : int;  (** pool domains for the queued lane *)
  memo : Memo.Table.t option;  (** [None] = memoing off *)
  threshold : int;  (** admission-control cost threshold (data refs) *)
  max_queue : int;  (** wave size for the queued lane *)
  faults : Resilience.Fault.plan option;
}

val config :
  ?pes:int -> ?workers:int -> ?memo:Memo.Table.t -> ?threshold:int ->
  ?max_queue:int -> ?faults:Resilience.Fault.plan -> src:string -> unit ->
  config
(** Defaults: [pes = 1], [workers = Engine.Pool.default_jobs ()],
    no memo, [threshold = 150], [max_queue = 256], no faults.
    @raise Invalid_argument if [pes], [workers], [threshold] or
    [max_queue] is not positive. *)

type t

val create : config -> t
(** Parses the database, runs the cost analysis and compiles the
    database image once (sequential for [pes = 1], parallel
    otherwise).
    @raise Prolog.Parser.Error, {!Prolog.Database.Load_error} or
    {!Wam.Compile.Error} on a bad source. *)

val config_of : t -> config

type request = { rq_id : int; rq_query : string }
type lane = Hit | Inline | Pooled

type response = {
  rs_id : int;
  rs_query : string;
  rs_answers : Memo.Canon.answer list;
      (** the first solution, [] on failure *)
  rs_lane : lane;
  rs_error : string option;  (** parse/runtime error, or injected fault *)
  rs_fault : bool;
      (** [rs_error] came from an injected (transient) fault, not from
          the program — the retry signal a supervisor keys on *)
  rs_latency_s : float;  (** batch arrival to completion *)
  rs_service_s : float;  (** execution only; 0 for memo hits *)
  rs_inferences : int;  (** 0 for memo hits *)
}

val run_direct : t -> string -> (Memo.Canon.answer list, string) result
(** One query straight through the engine — no memo, no admission, no
    faults: its answers, or the text of the program error it ended in.
    The cross-check oracle. *)

type admitted = private {
  rq : request;
  query : (Prolog.Term.t, string) result;
      (** the parsed query, or the text of its syntax error
          (["syntax error at N: ..."]) *)
  key : Memo.Canon.key option;  (** [None] when the text does not parse *)
}
(** A request with its text parsed. *)

val admit : request -> admitted
(** Parse the request's text and make its memo key from the term. *)

val verdict_of : t -> admitted -> Costan.Analyze.verdict
(** Admission verdict for a parsed request ([Keep] when it did not
    parse: it runs to its syntax error like any query). *)

val verdict : t -> string -> Costan.Analyze.verdict
(** {!verdict_of} for one query text. *)

val lookup_hit : t -> t0:float -> admitted -> response option
(** The memo-hit lane: a finished [Hit] response, or [None] when the
    query must actually run. *)

val compute : ?recheck:bool -> t -> t0:float -> admitted -> response
(** Run one request to a response on the calling domain, publishing
    the answers to the memo table.  [~recheck:true] is the pooled
    lane's double-checked lookup.  The response comes back with
    [rs_lane = Inline] (or [Hit]); the caller relabels pooled work.
    Every execution passes the ["sim-step"] fault site: an injected
    non-[Crash] fault becomes an [rs_fault] response, a planned
    [Crash] is re-raised.  A request that did not parse passes it
    too and is answered with its syntax error. *)
