(* Binary trace files.

   The paper's pipeline stores the emulator's tagged reference trace
   in files consumed by the cache simulators; this module provides the
   equivalent persistent format so traces can be generated once and
   swept many times (or inspected offline).

   Layout: the {!Resilience.Frame} header (magic + u64 version), a u64
   record count, then the packed words (8 bytes LE each) in
   {!Resilience.Frame.trace} frames, here called blocks.  A reader
   tells a clean EOF from a truncated file, detects a flipped bit by
   checksum, and in salvage mode skips a damaged block instead of
   miscounting every reference after it.  Writes are atomic; the
   "trace-write" (per block) and "block-flush" (whole file, pre-rename)
   fault sites inject each failure mode deterministically. *)

module Frame = Resilience.Frame

let magic = "RAPWAMTR"

(* Version 1 held access records only and version 2 interleaved the
   synchronization events, both as raw words; version 3 wraps the
   words in checksummed blocks and is the only one read. *)
let version = 3

let block_marker = Frame.trace.marker
let block_words = Frame.trace.max_units

exception Bad_file of string
exception Trace_error of { offset : int; reason : string }

type damage = {
  header_records : int;
  salvaged : int;
  prefix_records : int;
  skipped_blocks : int;
  truncated : bool;
  first_error : (int * string) option;
}

let lost d = max 0 (d.header_records - d.salvaged)
let clean d = d.skipped_blocks = 0 && (not d.truncated) && d.first_error = None

let pp_damage fmt d =
  if clean d then Format.fprintf fmt "intact (%d records)" d.salvaged
  else
    Format.fprintf fmt
      "salvaged %d of %d records (clean prefix %d, %d block%s skipped%s)%a"
      d.salvaged d.header_records d.prefix_records d.skipped_blocks
      (if d.skipped_blocks = 1 then "" else "s")
      (if d.truncated then ", truncated tail" else "")
      (fun fmt -> function
        | None -> ()
        | Some (off, reason) ->
          Format.fprintf fmt "; first error at byte %d: %s" off reason)
      d.first_error

(* ------------------------------------------------------------------ *)
(* Writing *)

let write ?faults path (buf : Sink.Buffer_sink.t) =
  Resilience.Atomic_io.write_file ~fault:("block-flush", faults) path
    (fun oc ->
      let block = Buffer.create (8 * block_words) in
      Buffer.add_string block (Frame.header ~magic ~version);
      Buffer.add_int64_le block (Int64.of_int (Sink.Buffer_sink.length buf));
      Buffer.output_buffer oc block;
      Buffer.clear block;
      (* an injected truncate tears a block; nothing follows it *)
      let intact = ref true in
      let flush () =
        if Buffer.length block > 0 && !intact then
          intact :=
            Frame.output ~fault:("trace-write", faults) Frame.trace oc
              (Buffer.contents block);
        Buffer.clear block
      in
      Sink.Buffer_sink.iter_packed
        (fun w ->
          Buffer.add_int64_le block (Int64.of_int w);
          if Buffer.length block = 8 * block_words then flush ())
        buf;
      flush ())

(* ------------------------------------------------------------------ *)
(* Reading.

   Both readers share one parse of the full contents; {!read} raises a
   typed {!Trace_error} at the first anomaly, {!read_salvage} records
   it and keeps every block the frame scanner kept. *)

let valid_word w =
  w >= 0 && match Ref_record.unpack_entry w with _ -> true | exception _ -> false

let parse path =
  let s, pos =
    match Frame.read ~magic ~version ~format:"trace" path with
    | Ok r -> r
    | Error e -> raise (Bad_file e)
  in
  if String.length s < pos + 8 then
    raise (Bad_file (path ^ ": not a RAP-WAM trace"));
  let count = Int64.to_int (String.get_int64_le s pos) in
  if count < 0 then raise (Bad_file (path ^ ": negative record count"));
  (* a corrupt header can claim any count: clamp the preallocation,
     the buffer grows on demand *)
  let buf =
    Sink.Buffer_sink.create ~capacity:(min (max 16 count) (1 lsl 20)) ()
  in
  (* a block is kept whole or not at all *)
  let decode s off len =
    let n = len / 8 in
    let word i = Int64.to_int (String.get_int64_le s (off + (8 * i))) in
    let rec valid i = i = n || (valid_word (word i) && valid (i + 1)) in
    if not (valid 0) then None
    else begin
      for i = 0 to n - 1 do
        Sink.Buffer_sink.push buf (word i)
      done;
      Some n
    end
  in
  let r = Frame.scan Frame.trace ~decode ~pos:(pos + 8) s in
  let salvaged = Sink.Buffer_sink.length buf in
  let first_error, truncated =
    match r.first_error with
    | Some _ as e -> (e, r.torn)
    | None when salvaged < count ->
      ( Some
          ( String.length s,
            Printf.sprintf "truncated: %d of %d records present" salvaged count
          ),
        true )
    | None -> (None, false)
  in
  let prefix_records =
    List.fold_left ( + ) 0
      (List.filteri (fun i _ -> i < r.clean_prefix) r.frames)
  in
  ( buf,
    {
      header_records = count;
      salvaged;
      prefix_records;
      skipped_blocks = r.skipped;
      truncated;
      first_error;
    } )

let read path =
  match parse path with
  | _, { first_error = Some (offset, reason); _ } ->
    raise (Trace_error { offset; reason })
  | buf, _ -> buf

let read_salvage = parse
