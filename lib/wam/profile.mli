(** Per-predicate dynamic profiling from the reference stream.

    Attribution works by code-range ownership: the compiler lays each
    predicate out contiguously from its entry address, so instruction
    fetches select the owning predicate and subsequent data references
    (by the same PE) are charged to it.  Entry-address fetches count
    procedure calls.  Works for sequential and parallel traces. *)

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

val sink : t -> Trace.Sink.t
(** Feed this sink (tee it with others) during a run. *)

val owner : t -> int -> counters option
(** Owning predicate of an instruction index, if any. *)

val spec : t -> counters -> string
(** ["name/arity"]. *)

val ranked : t -> counters list
(** Predicates that did any work, busiest (most data refs) first;
    deterministic order. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> Obs.Json.t
(** {!ranked}, one object per predicate. *)
