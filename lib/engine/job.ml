(* One unit of engine work: a keyed thunk run with timing, exception
   capture and bounded retry, each attempt optionally bounded by a
   timeout that abandons a stalled attempt instead of wedging the
   pool. *)

type 'a t = { key : string; thunk : unit -> 'a }

type 'a completed = {
  key : string;
  outcome : ('a, string) result;
  wall_s : float;
  attempts : int;
  timed_out : bool;
}

type attempts = {
  max_attempts : int;
  timeout_s : float option;
  backoff_s : float;
  poll_s : float;
}

let attempts ?timeout_s ?(backoff_s = 0.05) ?(poll_s = 0.002) n =
  {
    max_attempts = max 1 n;
    timeout_s = Option.map (Float.max 0.001) timeout_s;
    backoff_s = Float.max 0. backoff_s;
    poll_s = Float.max 0.0005 poll_s;
  }

let default_attempts = attempts 2

let make ~key thunk = { key; thunk }

let describe_exn exn bt =
  let b = Printexc.raw_backtrace_to_string bt in
  if String.trim b = "" then Printexc.to_string exn
  else Printexc.to_string exn ^ "\n" ^ String.trim b

(* An injected crash models a process kill: it must abort the whole
   run (the checkpoint journal is what makes that survivable), so it
   is the one exception retry/containment deliberately lets through. *)
let lethal = function
  | Resilience.Fault.Injected { kind = Resilience.Fault.Crash; _ } -> true
  | _ -> false

(* Exponential backoff with deterministic jitter: the delay depends
   only on the job key and attempt number, never on a random source,
   so retry schedules are reproducible. *)
let backoff_delay a ~key attempt =
  let base = a.backoff_s *. (2. ** float_of_int (attempt - 1)) in
  let jitter =
    a.backoff_s *. float_of_int (Hashtbl.hash (key, attempt) mod 997) /. 997.
  in
  Float.min 5.0 (base +. jitter)

let capture thunk =
  match thunk () with
  | v -> Ok v
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

(* Run one attempt on a helper thread, polling its completion slot.
   On timeout the thread cannot be killed (OCaml has no safe thread
   kill), so it is abandoned: its eventual result is written to a slot
   nobody reads, while the caller moves on to the retry.  Stalls
   injected by the fault plan are finite sleeps, so abandoned threads
   drain; a genuinely wedged thread parks until process exit. *)
let run_guarded ~timeout_s ~poll_s thunk =
  let slot = Atomic.make None in
  let t = Thread.create (fun () -> Atomic.set slot (Some (capture thunk))) () in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    match Atomic.get slot with
    | Some r ->
      Thread.join t;
      `Done r
    | None ->
      if Unix.gettimeofday () > deadline then `Timed_out timeout_s
      else begin
        Thread.yield ();
        Unix.sleepf poll_s;
        wait ()
      end
  in
  wait ()

let run ?attempts:(a = default_attempts) job =
  let t0 = Unix.gettimeofday () in
  let once () =
    match a.timeout_s with
    | None -> `Done (capture job.thunk)
    | Some timeout_s -> run_guarded ~timeout_s ~poll_s:a.poll_s job.thunk
  in
  let rec attempt n =
    match once () with
    | `Done (Ok v) -> (Ok v, n, false)
    | `Done (Error (e, bt)) when lethal e -> Printexc.raise_with_backtrace e bt
    | `Done (Error _) | `Timed_out _ when n < a.max_attempts ->
      Unix.sleepf (backoff_delay a ~key:job.key n);
      attempt (n + 1)
    | `Done (Error (e, bt)) -> (Error (describe_exn e bt), n, false)
    | `Timed_out timeout_s ->
      ( Error
          (Printf.sprintf "watchdog: %S stalled beyond %.2fs on all %d attempts"
             job.key timeout_s n),
        n,
        true )
  in
  let outcome, attempts, timed_out = attempt 1 in
  {
    key = job.key;
    outcome;
    wall_s = Unix.gettimeofday () -. t0;
    attempts;
    timed_out;
  }

let ok c = Result.is_ok c.outcome
