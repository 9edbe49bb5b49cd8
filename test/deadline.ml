(* A wall-clock bound for tests of code that used to hang: [within
   ~seconds f] runs [f] on the calling domain and fails the test if it
   has not returned after [seconds] (an interval timer interrupts it),
   or if it returned late. *)

exception Expired

let within ~seconds f =
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Expired)) in
  let stop () =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
    Sys.set_signal Sys.sigalrm previous
  in
  let t0 = Unix.gettimeofday () in
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = seconds });
  match f () with
  | r ->
    stop ();
    let elapsed = Unix.gettimeofday () -. t0 in
    if elapsed > seconds then Alcotest.failf "took %.2f s, bound %.1f s" elapsed seconds;
    r
  | exception Expired ->
    stop ();
    Alcotest.failf "still running after %.1f s" seconds
  | exception e ->
    stop ();
    raise e
