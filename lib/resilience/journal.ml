(* The sweep checkpoint journal.

   An append-only file of checksummed frames, one per completed sweep
   cell, fsync'd after every append so a crash loses at most the
   in-flight cell.  Replay salvages the valid prefix -- and, because
   every frame opens with a marker, resynchronizes past a corrupt
   frame in the middle -- so `--resume` trusts exactly the records
   whose checksums verify and recomputes everything else.

   Layout: the {!Frame} header (magic "RAPWAMJL" + u64 version), then
   {!Frame.journal} frames, one payload each. *)

let magic = "RAPWAMJL"
let version = 1

exception Journal_error of string

type writer = {
  oc : out_channel;
  plan : Fault.plan option;
  mutable dead : bool;  (* a failed append disables the writer *)
}

let create ?plan ?(append = false) path =
  let fresh = (not append) || not (Sys.file_exists path) in
  let oc =
    if fresh then open_out_bin path
    else open_out_gen [ Open_append; Open_binary ] 0o644 path
  in
  if fresh then begin
    output_string oc (Frame.header ~magic ~version);
    Atomic_io.fsync_channel oc
  end;
  { oc; plan; dead = false }

let append w payload =
  if not w.dead then begin
    ignore
      (Frame.output ~fault:("journal-append", w.plan) Frame.journal w.oc
         payload);
    Atomic_io.fsync_channel w.oc
  end

let close w =
  if not w.dead then begin
    w.dead <- true;
    close_out_noerr w.oc
  end

type replay = {
  entries : string list;
  skipped_frames : int;
  torn_tail : bool;
}

let replay path =
  match Frame.read ~magic ~version ~format:"journal" path with
  | Error e -> raise (Journal_error e)
  | Ok (s, pos) ->
    let r =
      Frame.scan Frame.journal ~pos s ~decode:(fun s off len ->
          Some (String.sub s off len))
    in
    { entries = r.frames; skipped_frames = r.skipped; torn_tail = r.torn }
