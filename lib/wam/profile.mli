(** Per-predicate dynamic profiling from the reference stream, and the
    one rule that attributes a trace's references to instructions.

    Attribution works by code-range ownership: the compiler lays each
    predicate out contiguously from its entry address, so an
    instruction fetch inside a predicate's range opens a {e window}
    for the issuing PE, and the PE's data references up to its next
    fetch belong to the fetched instruction.  Everything else is
    {e runtime}: what a PE references before its first fetch (query
    seeding), after a fetch outside every predicate (the [halt] and
    [goal_done] stubs the compiler emits first: completion and
    stealing), and from its first Message access up to its next fetch
    (message handling).  Entry-address fetches count procedure calls.
    Works for sequential and parallel traces. *)

type counters = {
  fid : int;
  entry : int;
  mutable calls : int;
  mutable instrs : int;
  mutable cp_created : int;  (** deep [try] fetches: choice points pushed *)
  mutable cp_elided : int;
      (** shallow [try] fetches: certified chains entered shallow instead *)
  mutable trail_elided : int;
      (** fetches of binding-certified instructions that skip the trail
          check ([Uncond] gets; gets, builtins and [put_variable] with
          the [uncond] flag) *)
  mutable deref_skipped : int;
      (** fetches of [Rigid]/[Uncond] gets that skip the argument
          dereference *)
  refs : int array;  (** data references, indexed by [Trace.Area.to_int] *)
}

type t

val create : Symbols.t -> Code.t -> t

val owner : t -> int -> counters option
(** Owning predicate of an instruction index, if any. *)

(** What a replay does with each window. *)
type 'w windows = {
  fetch : Trace.Ref_record.t -> counters -> int -> 'w;
      (** a fetch of this code index, inside this predicate's range,
          opens a window *)
  data : 'w -> Trace.Ref_record.t -> unit;  (** a reference it holds *)
  close : 'w -> unit;
      (** at the PE's next fetch, its first Message access or the end
          of the trace *)
  runtime : Trace.Ref_record.t -> unit;
      (** a runtime data reference, or a fetch outside every
          predicate *)
}

val attribute : t -> 'w windows -> Trace.Sink.t * (unit -> unit)
(** Attribute a run as it goes: feed it the sink, then call the
    function to close the windows still open at its end. *)

val replay : t -> 'w windows -> Trace.Sink.Buffer_sink.t -> unit
(** Attribute a recorded trace, closing the windows still open at its
    end. *)

val sink : t -> Trace.Sink.t
(** Feed this sink (tee it with others) during a run: it fills the
    per-predicate counters and the runtime bucket. *)

val spec : t -> counters -> string
(** ["name/arity"]. *)

val ranked : t -> counters list
(** Predicates that did any work, busiest (most data refs) first;
    deterministic order. *)

val pp : Format.formatter -> t -> unit
(** {!ranked}, then the [(runtime)] row. *)

val to_json : t -> Obs.Json.t
(** {!ranked}, one object per predicate, then the [(runtime)] row: its
    [instrs] are the fetches outside every predicate, so the rows'
    [instrs] sum to the run's Code reads and their [refs] to its data
    references. *)
