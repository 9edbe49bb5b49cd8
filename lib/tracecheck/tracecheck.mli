(** Happens-before race detector and coherence-invariant sanitizer over
    tagged RAP-WAM memory traces.

    Replays a packed trace (memory accesses interleaved with the
    explicit synchronization events of {!Trace.Ref_record.sync}) once,
    maintaining a vector clock per PE plus a released clock per
    synchronization address, and checks five invariants:

    - ["race"]: no two PEs make conflicting accesses (at least one a
      write) to the same word unordered by happens-before;
    - ["tag-locality"]: on a synchronized cross-PE conflict, every
      access by a PE other than the word's owner carries a
      Global-locality area tag, so the paper's hybrid write-through
      protocol keeps it coherent;
    - ["read-before-write"]: no word is read before its first write
      (code fetches and boot-initialized goal/message control words
      excepted);
    - ["area-bounds"]: the area tag of every access agrees with the
      address's region in {!Wam.Layout};
    - ["stale-trail"]: the selective-unwind reset pattern (Trail read
      then same-PE write) only resets previously written words.

    Cost is one pass over the packed words with O(n_pes) shadow state
    per distinct address. *)

type violation = {
  rule : string;
  pe : int;  (** the PE whose access triggered the report *)
  other_pe : int;  (** the conflicting PE, or [-1] *)
  addr : int;
  area : Trace.Area.t option;
  message : string;
}

type summary = {
  violations : violation list;
      (** the first [max_violations] found, in trace order *)
  n_violations : int;  (** total found, deduplicated per rule and address *)
  accesses : int;
  syncs : int;
  distinct_addrs : int;
  n_pes : int;
}

val check_buffer :
  ?max_violations:int -> Trace.Sink.Buffer_sink.t -> summary
(** Replay a complete trace buffer. *)

val ok : summary -> bool
(** No violations. *)

val pp_summary : Format.formatter -> summary -> unit

val json_of_summary : ?label:string -> summary -> Obs.Json.t
(** One JSON object: counts plus the retained violations. *)

(** {1 Seeded-defect transforms}

    Each transform damages a clean packed trace in one way a correct
    implementation could get wrong (dropped synchronization edge,
    mis-tagged area, unlocked update, uninitialized read, stale trail
    entry); {!check_buffer} must flag the result with the defect's
    [rule].  Used by the defect fixtures in the test suite and the
    [tracecheck --defect] CLI. *)

module Defects : sig
  type defect = {
    name : string;
    rule : string;  (** the checker rule expected to fire *)
    description : string;
  }

  val all : defect list
  val names : string list
  val find : string -> defect option

  val apply : string -> Trace.Sink.Buffer_sink.t -> Trace.Sink.Buffer_sink.t
  (** [apply name buf] returns a damaged copy of [buf]; [buf] itself
      is untouched.  Raises [Invalid_argument] on an unknown name. *)
end
