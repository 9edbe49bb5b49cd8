(** One unit of engine work: a keyed thunk executed with wall-clock
    timing, exception capture, and bounded retry.

    A job never lets an exception escape — a failed attempt is
    retried, and a persistent failure becomes an [Error] outcome
    carrying the exception text — with one deliberate exception: an
    injected {e crash} fault ({!Resilience.Fault.Injected} with kind
    [Crash]) models a process kill, so it is re-raised and aborts the
    run; the sweep checkpoint journal is what makes that survivable.

    One loop runs every job under an {!attempts} record.  Attempts
    back off exponentially with deterministic (key-derived) jitter.
    With a timeout, each attempt runs on a helper thread and is
    abandoned if it exceeds it, so a stalled cell is killed and
    retried instead of wedging the pool. *)

type 'a t = private { key : string; thunk : unit -> 'a }

type 'a completed = {
  key : string;
  outcome : ('a, string) result;
  wall_s : float;  (** wall clock summed over all attempts *)
  attempts : int;
  timed_out : bool;
      (** the final attempt was abandoned at its timeout — the typed
          signal a deadline layer needs to distinguish a timeout from
          an ordinary failure *)
}

type attempts
(** How a job is attempted: how many times, under which timeout, and
    how long to back off between attempts. *)

val attempts :
  ?timeout_s:float -> ?backoff_s:float -> ?poll_s:float -> int -> attempts
(** [attempts n]: at most [n] attempts (at least 1).  [timeout_s]
    bounds each attempt (default: none, the attempt runs on the
    caller); [backoff_s] is the base of the exponential backoff
    between attempts (default 50 ms); [poll_s] is how often a timed
    attempt's completion is polled (default 2 ms). *)

val make : key:string -> (unit -> 'a) -> 'a t

val run : ?attempts:attempts -> 'a t -> 'a completed
(** Execute the job, by default under [attempts 2].  A failed or
    timed-out attempt is followed, after the backoff, by the next
    one until none is left.  A timed-out attempt's thread is
    abandoned (OCaml cannot kill threads), so plan stall durations
    finitely when injecting faults. *)

val ok : 'a completed -> bool
