(* Durable memo snapshots: the answer table, framed for salvage.

   A snapshot is a header (own magic + version, distinct from the
   checkpoint journal's) followed by one CRC-checksummed
   [Resilience.Journal] frame per table entry, entries sorted by
   canonical key text so the same table always produces the same
   bytes.  The whole image is committed with an atomic write, so a
   clean save is all-or-nothing; the per-entry framing is what makes a
   {e faulted} save (torn or bit-flipped by the injector, or by a real
   disk) degrade gracefully — restore salvages every frame whose CRC
   verifies and recomputes the rest as ordinary misses.

   Entry payload, line-oriented (canonical key and term texts are
   single-line by construction):
     K <canonical call text>
     A                       (one per answer, in first-insert order)
     B <var> = <term text>   (one per binding of that answer)  *)

let magic = "RAPWAMMS"
let version = 1

exception Snapshot_error of string

let header_len = String.length magic + 8

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
    Table.fold table (fun k answers acc -> (k, answers) :: acc) []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  let b8 = Bytes.create 8 in
  Bytes.set_int64_le b8 0 (Int64.of_int version);
  Buffer.add_bytes b b8;
  List.iter
    (fun (k, answers) ->
      Buffer.add_string b (Resilience.Journal.frame (payload k answers)))
    entries;
  let bytes = Buffer.contents b in
  let bytes =
    match Resilience.Fault.fire plan "snapshot-write" with
    | None -> bytes
    | Some (Resilience.Fault.Stall, _) ->
      Unix.sleepf
        (match plan with
        | Some p -> Resilience.Fault.stall_seconds p
        | None -> 0.);
      bytes
    | Some (Resilience.Fault.Truncate, _) ->
      (* torn snapshot: half the image reaches the disk *)
      String.sub bytes 0 (String.length bytes / 2)
    | Some (Resilience.Fault.Bit_flip, _) ->
      (* flip a bit mid-body (past the header): exactly one frame's
         CRC stops verifying *)
      let bs = Bytes.of_string bytes in
      let i = header_len + ((Bytes.length bs - header_len) / 2) in
      let i = min i (Bytes.length bs - 1) in
      if i >= 0 then
        Bytes.set bs i (Char.chr (Char.code (Bytes.get bs i) lxor 0x10));
      Bytes.to_string bs
    | Some ((Resilience.Fault.Eio | Resilience.Fault.Crash) as kind, occurrence)
      ->
      raise (Resilience.Fault.Injected { site = "snapshot-write"; kind; occurrence })
  in
  Resilience.Atomic_io.write_string path bytes;
  List.length entries

type restore_stats = { entries : int; skipped : int; torn : bool }

let restore table path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  if String.length s < header_len
     || String.sub s 0 (String.length magic) <> magic
  then raise (Snapshot_error (path ^ ": not a RAP-WAM memo snapshot"));
  let v = Int64.to_int (String.get_int64_le s (String.length magic)) in
  if v <> version then
    raise
      (Snapshot_error
         (Printf.sprintf "%s: unsupported snapshot version %d" path v));
  let r = Resilience.Journal.scan ~pos:header_len s in
  let entries = ref 0 and skipped = ref r.Resilience.Journal.skipped_frames in
  List.iter
    (fun payload ->
      match entry_of_payload payload with
      | Ok (key, answers) ->
        ignore (Table.insert table key answers);
        incr entries
      | Error _ -> incr skipped)
    r.Resilience.Journal.entries;
  { entries = !entries; skipped = !skipped; torn = r.Resilience.Journal.torn_tail }
