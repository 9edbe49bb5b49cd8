(* Durable memo snapshots: the answer table, framed for salvage.

   A snapshot is the {!Resilience.Frame} header (own magic + version,
   distinct from the checkpoint journal's) followed by one
   {!Resilience.Frame.journal} frame per table entry, entries sorted by
   canonical key text so the same table always produces the same
   bytes.  The key text is the only place a key is printed: it is
   decoded from the key's byte code ({!Canon.text}), and restore
   parses it back into the same code.  The whole image is committed
   with an atomic write, so a clean save is all-or-nothing; the
   per-entry framing is what makes a {e faulted} save (torn or
   bit-flipped by the injector, or by a real disk) degrade gracefully —
   restore salvages every frame whose CRC verifies and recomputes the
   rest as ordinary misses.

   Entry payload, line-oriented (canonical key and term texts are
   single-line: the printer escapes newlines in quoted atoms):
     K <canonical call text>
     A                       (one per answer, in first-insert order)
     B <var> = <term text>   (one per binding of that answer)  *)

module Frame = Resilience.Frame

let magic = "RAPWAMMS"
let version = 1

exception Snapshot_error of string

let payload key_text (answers : Canon.answer list) =
  let b = Buffer.create 128 in
  Buffer.add_string b "K ";
  Buffer.add_string b key_text;
  List.iter
    (fun answer ->
      Buffer.add_string b "\nA";
      List.iter
        (fun (v, t) ->
          Buffer.add_string b "\nB ";
          Buffer.add_string b v;
          Buffer.add_string b " = ";
          Buffer.add_string b (Prolog.Pretty.to_string t))
        answer)
    answers;
  Buffer.contents b

(* One entry back from its payload.  Any damage — unparsable key or
   term, stray line — rejects the whole entry; restore counts it
   skipped and the server recomputes it on demand. *)
let entry_of_payload payload =
  let exception Reject of string in
  try
    match String.split_on_char '\n' payload with
    | first :: rest when String.length first >= 2 && String.sub first 0 2 = "K "
      -> (
      let key_text = String.sub first 2 (String.length first - 2) in
      match Canon.key_of_query key_text with
      | Error e -> Error (Printf.sprintf "bad key %S: %s" key_text e)
      | Ok key ->
        let binding line =
          (* "B <var> = <term>": the variable name has no spaces, so
             the first space ends it *)
          let s = String.sub line 2 (String.length line - 2) in
          match String.index_opt s ' ' with
          | Some i
            when i + 2 < String.length s
                 && s.[i + 1] = '=' && s.[i + 2] = ' ' ->
            let v = String.sub s 0 i in
            let text = String.sub s (i + 3) (String.length s - i - 3) in
            (v, Prolog.Parser.term_of_string text)
          | _ -> raise (Reject (Printf.sprintf "bad binding line %S" line))
        in
        let answers =
          List.fold_left
            (fun acc line ->
              if line = "A" then [] :: acc
              else if String.length line >= 2 && String.sub line 0 2 = "B "
              then
                match acc with
                | cur :: tl -> (binding line :: cur) :: tl
                | [] -> raise (Reject "binding before any answer")
              else raise (Reject (Printf.sprintf "bad line %S" line)))
            [] rest
        in
        Ok (key, List.rev_map List.rev answers))
    | _ -> Error "payload does not start with a key line"
  with
  | Reject e -> Error e
  | Prolog.Parser.Error (e, _) -> Error ("bad term: " ^ e)

let save ?plan table path =
  let entries =
    Table.fold table (fun k answers acc -> (Canon.text k, answers) :: acc) []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Resilience.Atomic_io.write_file ~fault:("snapshot-write", plan) path
    (fun oc ->
      output_string oc (Frame.header ~magic ~version);
      List.iter
        (fun (k, answers) ->
          output_string oc (Frame.encode Frame.journal (payload k answers)))
        entries);
  List.length entries

type restore_stats = { entries : int; skipped : int; torn : bool }

let restore table path =
  match Frame.read ~magic ~version ~format:"memo snapshot" path with
  | Error e -> raise (Snapshot_error e)
  | Ok (s, pos) ->
    let r =
      Frame.scan Frame.journal ~pos s ~decode:(fun s off len ->
          Result.to_option (entry_of_payload (String.sub s off len)))
    in
    List.iter
      (fun (key, answers) -> ignore (Table.insert table key answers))
      r.frames;
    { entries = List.length r.frames; skipped = r.skipped; torn = r.torn }
