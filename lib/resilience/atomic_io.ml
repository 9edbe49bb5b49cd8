(* Atomic file writes: tmp + fsync + rename.

   An interrupted writer must never leave a half-written result where
   a reader expects a complete one, so all persistent pipeline outputs
   (JSON/CSV grids, binary traces, memo snapshots) go through here: the
   payload is written to a sibling temp file, fsync'd, and renamed
   over the destination.  On any exception the temp file is removed
   and the destination is untouched.

   The whole-file fault sites ("block-flush", "snapshot-write") fire
   between the complete temp file and the rename, on the file read
   back: a truncate or bit flip still commits, which is the torn disk
   state being modelled, while EIO or a crash aborts and leaves no
   destination. *)

let fsync_channel oc =
  (* flush the OCaml buffer, then the kernel's *)
  flush oc;
  try Unix.fsync (Unix.descr_of_out_channel oc)
  with Unix.Unix_error _ -> ()

let write_file ?fault path f =
  let dir = Filename.dirname path in
  let tmp =
    Filename.temp_file ~temp_dir:dir ("." ^ Filename.basename path) ".tmp"
  in
  let oc = open_out_bin tmp in
  (try
     f oc;
     fsync_channel oc;
     close_out oc;
     match fault with
     | Some (site, (Some _ as plan)) ->
       let s = In_channel.with_open_bin tmp In_channel.input_all in
       let s, _ = Fault.io plan site ~from:0 s in
       Out_channel.with_open_bin tmp (fun oc -> output_string oc s)
     | _ -> ()
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let write_string path s = write_file path (fun oc -> output_string oc s)
