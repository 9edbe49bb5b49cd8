(* Per-predicate area/mode summaries.

   A summary is one mode per storage area plus a closed-world flag:
   [closed = false] means the predicate (or something it reaches)
   calls a predicate the analysis has no code for, so the summary is
   not a safe upper bound and certification must refuse it. *)

type t = { modes : Mode.t array; closed : bool }

let empty () = { modes = Array.make Trace.Area.count Mode.Nil; closed = true }

let copy s = { s with modes = Array.copy s.modes }

let get s area = s.modes.(Trace.Area.to_int area)
let set s area m = s.modes.(Trace.Area.to_int area) <- m

let add_mode s area m =
  let i = Trace.Area.to_int area in
  s.modes.(i) <- Mode.join s.modes.(i) m

let add_entries s entries =
  List.iter
    (fun (x : Wam.Access.entry) ->
      List.iter (fun op -> add_mode s x.area (Mode.of_op x.area op)) x.ops)
    entries

let join a b =
  {
    modes = Array.init Trace.Area.count (fun i -> Mode.join a.modes.(i) b.modes.(i));
    closed = a.closed && b.closed;
  }

let equal a b = a.closed = b.closed && a.modes = b.modes

(* Does the summary permit a dynamic access? *)
let permits s area op = Mode.leq (Mode.of_op area op) (get s area)

let pp fmt s =
  let parts =
    List.filter_map
      (fun a ->
        match get s a with
        | Mode.Nil -> None
        | m -> Some (Printf.sprintf "%s:%s" (Trace.Area.name a) (Mode.name m)))
      Trace.Area.all
  in
  Format.fprintf fmt "%s%s"
    (String.concat ", " parts)
    (if s.closed then "" else " [open]")
