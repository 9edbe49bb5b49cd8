(* Clocks, order statistics, process memory and digests shared by the
   workloads.  Nothing here touches the layers under test. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in [0, 100]: the value with at least
   p% of the samples at or below it.  [nan] on no samples. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

(* The middle value, or the mean of the two middle values. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = Array.fold_left ( +. ) 0. xs

(* Samples strictly above the [p]th percentile: how well a tail
   percentile is supported. *)
let beyond xs p =
  let cut = percentile xs p in
  Array.fold_left (fun n x -> if x > cut then n + 1 else n) 0 xs

(* Peak resident set of this process (VmHWM), in MB.  Falls back to
   the OCaml heap's high-water mark where /proc is not available. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> Some (float_of_int kb /. 1024.))
          | _ -> scan ()
          | exception End_of_file -> None
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    let st = Gc.quick_stat () in
    float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let minor_words () = Gc.minor_words ()

(* Digest of a packed trace: a multiply-xorshift fold over every
   retained word (accesses and sync events) and the length.  Any
   change to the order, content or count of the words changes it. *)
let trace_digest buf =
  let h = ref (Trace.Sink.Buffer_sink.length buf) in
  Trace.Sink.Buffer_sink.iter_packed
    (fun w ->
      let x = (!h lxor w) * 0x100000001b3 in
      h := x lxor (x lsr 29))
    buf;
  Printf.sprintf "%016Lx" (Int64.of_int !h)

(* Number of memory accesses in a packed trace (sync events excluded). *)
let accesses buf =
  Trace.Sink.Buffer_sink.length buf - Trace.Sink.Buffer_sink.n_syncs buf
