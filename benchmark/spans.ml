(* In-memory spans recorded around the calls the benchmark makes into
   each layer.  A span's name is "<layer>.<call>"; its self time is its
   duration minus the time its child spans cover.  Recording is off
   unless [enabled] is set, so untraced runs pay one branch per call.
   Spans stay in memory and are written as JSON lines by [write]. *)

type span = {
  id : int;
  parent : int;  (** 0 = a root span *)
  name : string;
  start_ns : float;
  mutable end_ns : float;
  attrs : (string * string) list;
  mutable counts : (string * int) list;
}

let enabled = ref false
let run_id = ref ""
let finished : span list ref = ref []
let open_ : span list ref = ref []
let next_id = ref 0

let now_ns () = Unix.gettimeofday () *. 1e9

(* [with_ name f] runs [f] inside a span.  [counts] derives the span's
   counts from [f]'s result; the minor words allocated inside the span
   are always recorded. *)
let with_ ?(attrs = []) ?(counts = fun _ -> []) name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let parent = match !open_ with p :: _ -> p.id | [] -> 0 in
    let sp =
      { id = !next_id; parent; name; start_ns = now_ns (); end_ns = 0.; attrs;
        counts = [] }
    in
    open_ := sp :: !open_;
    let mw0 = Gc.minor_words () in
    let close extra =
      sp.end_ns <- now_ns ();
      sp.counts <-
        extra @ [ ("minor_words", int_of_float (Gc.minor_words () -. mw0)) ];
      open_ := List.tl !open_;
      finished := sp :: !finished
    in
    match f () with
    | r ->
      close (counts r);
      r
    | exception e ->
      close [];
      raise e
  end

let spans () = List.rev !finished

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self seconds of every layer, largest first. *)
let self_times () =
  let child_ns = Hashtbl.create 256 in
  List.iter
    (fun sp ->
      if sp.parent <> 0 then
        Hashtbl.replace child_ns sp.parent
          (Option.value ~default:0. (Hashtbl.find_opt child_ns sp.parent)
          +. (sp.end_ns -. sp.start_ns)))
    !finished;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let self =
        sp.end_ns -. sp.start_ns
        -. Option.value ~default:0. (Hashtbl.find_opt child_ns sp.id)
      in
      let layer = layer_of sp.name in
      Hashtbl.replace by_layer layer
        (Option.value ~default:0. (Hashtbl.find_opt by_layer layer) +. self))
    !finished;
  Hashtbl.fold (fun layer ns acc -> (layer, ns /. 1e9) :: acc) by_layer []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let write path =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun sp ->
          let obj kvs = Json.Obj kvs in
          output_string oc
            (Json.to_string
               (obj
                  [
                    ("name", Json.Str sp.name);
                    ("id", Json.Num (float_of_int sp.id));
                    ("parent", Json.Num (float_of_int sp.parent));
                    ("run", Json.Str !run_id);
                    ("start_ns", Json.Num sp.start_ns);
                    ("end_ns", Json.Num sp.end_ns);
                    ("attrs", obj (List.map (fun (k, v) -> (k, Json.Str v)) sp.attrs));
                    ( "counts",
                      obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) sp.counts)
                    );
                  ]));
          output_char oc '\n')
        (spans ()))
