(* serve-hot and serve-churn: a closed loop with one client against the
   supervised query server (one worker domain, sequential WAM, default
   policy).  The client sends a batch to [Server.Supervise.serve] and
   sends the next one when it returns; a batch round trip is this
   workload's request and a query is an operation.  Between batches
   (outside the timed region) every response is checked: an available
   outcome and the oracle's answer.

   Each pass serves the next [pass_requests] requests of one
   deterministic zipfian stream through a fresh [Serve.t] and
   [Supervise.t] that share the run's memo table, so the latency
   buffers they keep do not grow with the length of the run. *)

type spec = {
  mix : Server.Traffic.mix;
  zipf_s : float;
  memo_words : int;
  batch : int;
  warm_table : bool;  (** serve the whole pool once during set-up *)
  pass_requests : int;
}

let hot =
  {
    mix = [ ("deriv", 24); ("qsort", 24); ("tak", 12); ("matrix", 12) ];
    zipf_s = 1.1;
    memo_words = 64 * 1024 * 1024 / 8;
    batch = 64;
    warm_table = true;
    pass_requests = 64 * 1024;
  }

let churn =
  {
    mix = [ ("deriv", 1000); ("qsort", 1000); ("tak", 24); ("matrix", 500) ];
    zipf_s = 0.6;
    memo_words = 32 * 1024;
    batch = 16;
    warm_table = false;
    pass_requests = 1024;
  }

let smoke_spec s =
  { s with mix = List.map (fun (p, n) -> (p, min n 6)) s.mix; pass_requests = 4 * s.batch;
           memo_words = (if s.warm_table then s.memo_words else 256) }

let stream_length = 1 lsl 16

(* The repository's traffic default when --seed is 0. *)
let traffic_seed seed = if seed = 0 then 42 else seed

type state = {
  src : string;
  memo : Memo.Table.t;
  requests : Server.Serve.request array;
}

let server st =
  Server.Supervise.create
    (Server.Serve.create
       (Server.Serve.config ~pes:1 ~workers:1 ~memo:st.memo ~src:st.src ()))

let run spec (ctx : Run.ctx) : Run.outcome =
  let spec = if ctx.Run.smoke then smoke_spec spec else spec in
  let seed = traffic_seed ctx.Run.seed in
  let tally = Oracle.tally () in
  let seen = Oracle.cache () in
  let pool = Server.Traffic.pool spec.mix ~seed in
  let cursor = ref 0 in
  let latencies = ref [] and ops = ref 0. in
  let stream = Ledger.stream () in
  (* serve the next [pass_requests] requests of the stream through [sup] *)
  let pass st sup ~traced =
    let wall = ref 0. in
    for _ = 1 to spec.pass_requests / spec.batch do
      let batch = List.init spec.batch (fun i -> st.requests.((!cursor + i) mod stream_length)) in
      cursor := !cursor + spec.batch;
      let t0 = Measure.now () in
      let responses =
        Spans.with_ "server.batch"
          ~counts:(fun rs ->
            [ ("requests", spec.batch);
              ("hits",
                List.length
                  (List.filter (fun r -> r.Server.Supervise.sv.Server.Serve.rs_lane = Server.Serve.Hit) rs)) ])
          (fun () -> Server.Supervise.serve sup batch)
      in
      let t = Measure.now () -. t0 in
      wall := !wall +. t;
      if not traced then begin
        latencies := t :: !latencies;
        ops := !ops +. float_of_int spec.batch
      end;
      List.iter
        (fun r ->
          Oracle.check_response tally seen r;
          if traced then Ledger.note_response stream r)
        responses
    done;
    !wall
  in
  (* set-up: load the server, generate the traffic, warm the memo
     (serve-hot), then one untimed pass to settle the runtime and, for
     churn, the table *)
  let st, setup_s =
    Run.setups (fun () ->
        let st =
          {
            src = Server.Traffic.database spec.mix;
            memo = Memo.Table.create ~capacity_words:spec.memo_words ();
            requests = Server.Traffic.requests spec.mix ~seed ~s:spec.zipf_s ~n:stream_length;
          }
        in
        if spec.warm_table then
          List.iter (Oracle.check_response tally seen)
            (Server.Supervise.serve (server st)
               (Array.to_list (Array.mapi (fun i q -> { Server.Serve.rq_id = i; rq_query = q }) pool)));
        ignore (pass st (server st) ~traced:false);
        st)
  in
  latencies := [];
  ops := 0.;
  (* traced passes share one supervisor, whose counts feed the
     per-layer stream metrics *)
  let before = Memo.Table.totals st.memo in
  let traced_sup = lazy (server st) in
  let pass_s, traced_s =
    Run.passes ctx ~fixed:8 (fun ~traced ->
        pass st (if traced then Lazy.force traced_sup else server st) ~traced)
  in
  let totals = Memo.Table.totals st.memo in
  if Lazy.is_val traced_sup then
    Ledger.note_server stream (Lazy.force traced_sup) ~before ~after:totals;
  let by_rank =
    Array.to_list (Array.sub pool 0 (min (if ctx.Run.smoke then 4 else 16) (Array.length pool)))
  in
  {
    Run.setup_s;
    pass_s;
    traced_s;
    ops = !ops;
    op = "query";
    latency_s = Array.of_list (List.rev !latencies);
    request = Printf.sprintf "batch of %d" spec.batch;
    tally;
    digest = Printf.sprintf "hits=%d misses=%d inserts=%d evictions=%d" totals.Memo.Table.hits
        totals.Memo.Table.misses totals.Memo.Table.inserts totals.Memo.Table.evictions;
    lines =
      [
        Printf.sprintf "memo hit rate %.4f over %d lookups, %d evictions, %d live entries"
          (Memo.Table.hit_rate totals) (totals.Memo.Table.hits + totals.Memo.Table.misses)
          totals.Memo.Table.evictions totals.Memo.Table.entries;
      ];
    ledger =
      {
        Ledger.benchmarks =
          List.mapi
            (fun i q ->
              { Benchlib.Programs.name = Printf.sprintf "q%d" i; src = st.src; query = q;
                answer_var = (match Oracle.expect q with Some (v, _) -> v | None -> "") })
            by_rank;
        server_src = st.src;
        reps = (if ctx.Run.smoke then 1 else 5);
      };
    stream;
  }
