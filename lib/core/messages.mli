(** Message buffers (paper, Table 1 "Messages").

    Backward execution across PEs is message-driven: a failing parcall
    asks the PEs that executed sibling goals to unwind their sections
    (selective trail replay) and acknowledge.  Each PE has a locked
    message region; a message is a fixed three-word record (kind word
    1, parcall frame, slot), and unwind is its only kind. *)

type t = { pf : int; slot : int }
(** An unwind request for the section that ran [slot] of the parcall
    frame at [pf]. *)

type queues
(** OCaml-side mirror of the per-PE queue pointers (the memory words
    carry the traffic). *)

val create_queues : int -> queues

val send :
  Wam.Machine.t -> queues -> Wam.Machine.worker -> target:int -> t -> unit

val pending : queues -> Wam.Machine.worker -> bool
(** Untraced poll. *)

val receive : Wam.Machine.t -> queues -> Wam.Machine.worker -> t
(** Dequeue the next message (traced; call only when [pending]).
    @raise Wam.Machine.Runtime_error on a kind word other than 1. *)
