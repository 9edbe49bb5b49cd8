(* A bounded set of idle objects, behind one lock: machines and query
   workspaces are taken and given back from every server domain and
   from the helper threads that run timed attempts. *)

type 'a t = {
  lock : Mutex.t;
  mutable idle : 'a list; (* most recently given first *)
  mutable count : int;
  limit : int;
}

let create ~limit = { lock = Mutex.create (); idle = []; count = 0; limit }

let take t ~fits =
  Mutex.protect t.lock (fun () ->
      let rec pick skipped = function
        | [] -> None
        | x :: rest when fits x ->
          t.idle <- List.rev_append skipped rest;
          t.count <- t.count - 1;
          Some x
        | x :: rest -> pick (x :: skipped) rest
      in
      pick [] t.idle)

let give t x =
  Mutex.protect t.lock (fun () ->
      if t.count < t.limit then begin
        t.idle <- x :: t.idle;
        t.count <- t.count + 1
      end)
