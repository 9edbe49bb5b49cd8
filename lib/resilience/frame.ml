(* The codec of every durable file: one header, one frame writer and
   one frame scanner.  A frame is marker | u32 length | u32 CRC-32 |
   payload; the marker is what lets the scanner resynchronize past
   damage instead of misreading everything after it. *)

type layout = { marker : string; unit_bytes : int; max_units : int }

let journal = { marker = "RWJF"; unit_bytes = 1; max_units = 1 lsl 20 }
let trace = { marker = "RWTRBLK\xa5"; unit_bytes = 8; max_units = 1024 }

let header_bytes l = String.length l.marker + 8

let header ~magic ~version =
  let b = Buffer.create 16 in
  Buffer.add_string b magic;
  Buffer.add_int64_le b (Int64.of_int version);
  Buffer.contents b

let read ~magic ~version ~format path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e ->
    Error
      (if String.starts_with ~prefix:(path ^ ":") e then e
       else path ^ ": " ^ e)
  | s ->
    let m = String.length magic in
    if String.length s < m + 8 || String.sub s 0 m <> magic then
      Error (Printf.sprintf "%s: not a RAP-WAM %s" path format)
    else
      let v = Int64.to_int (String.get_int64_le s m) in
      if v <> version then
        Error (Printf.sprintf "%s: unsupported %s version %d" path format v)
      else Ok (s, m + 8)

let encode l payload =
  let len = String.length payload in
  if len mod l.unit_bytes <> 0 || len / l.unit_bytes > l.max_units then
    invalid_arg
      (Printf.sprintf "Frame.encode: a %d-byte payload does not fit a %S frame"
         len l.marker);
  let b = Buffer.create (header_bytes l + len) in
  Buffer.add_string b l.marker;
  Buffer.add_int32_le b (Int32.of_int (len / l.unit_bytes));
  Buffer.add_int32_le b (Int32.of_int (Crc32.string payload));
  Buffer.add_string b payload;
  Buffer.contents b

let output ~fault:(site, plan) l oc payload =
  let bytes, whole =
    Fault.io plan site ~from:(header_bytes l) (encode l payload)
  in
  output_string oc bytes;
  whole

type 'a scan = {
  frames : 'a list;
  skipped : int;
  torn : bool;
  first_error : (int * string) option;
  clean_prefix : int;
}

let scan l ~decode ~pos s =
  let n = String.length s and m = String.length l.marker in
  let h = header_bytes l in
  let is_marker i =
    let rec eq k = k = m || (s.[i + k] = l.marker.[k] && eq (k + 1)) in
    i + m <= n && eq 0
  in
  let rec next_marker i =
    if i + m > n then None
    else if is_marker i then Some i
    else next_marker (i + 1)
  in
  (* the payload at [pos] and where the next frame starts, or why not *)
  let frame pos =
    if pos + h > n || not (is_marker pos) then Error "expected a frame marker"
    else
      let len = Int32.to_int (String.get_int32_le s (pos + m)) in
      let crc =
        Int32.to_int (String.get_int32_le s (pos + m + 4)) land 0xffffffff
      in
      if len < 0 || len > l.max_units then
        Error (Printf.sprintf "implausible frame length %d" len)
      else
        let bytes = len * l.unit_bytes in
        if pos + h + bytes > n then Error "frame extends past end of file"
        else if Crc32.sub s (pos + h) bytes <> crc then
          Error "frame checksum mismatch"
        else
          match decode s (pos + h) bytes with
          | Some v -> Ok (v, pos + h + bytes)
          | None -> Error "undecodable payload in a checksummed frame"
  in
  let finish acc kept skipped first torn =
    let first_error, clean_prefix =
      match first with Some (e, k) -> (Some e, k) | None -> (None, kept)
    in
    { frames = List.rev acc; skipped; torn; first_error; clean_prefix }
  in
  let rec go acc kept skipped first pos =
    if pos >= n then finish acc kept skipped first false
    else
      match frame pos with
      | Ok (v, next) -> go (v :: acc) (kept + 1) skipped first next
      | Error reason -> (
        let first =
          if first = None then Some ((pos, reason), kept) else first
        in
        match next_marker (pos + 1) with
        | Some next -> go acc kept (skipped + 1) first next
        | None -> finish acc kept skipped first true)
  in
  go [] 0 0 None pos
