(* Deterministic keyed sweep results and their renderers. *)

type config = {
  bench : string;
  n_pes : int;
  protocol : Cachesim.Protocol.kind;
  line_words : int;
  cache_words : int;
}

type cell = {
  config : config;
  metrics : (Cachesim.Metrics.t, string) result;
}

let config_key c =
  Printf.sprintf "%s/%dpe/%s/l%d/c%d" c.bench c.n_pes
    (Cachesim.Protocol.kind_name c.protocol)
    c.line_words c.cache_words

let compare_config a b =
  let cmp x y next = match compare x y with 0 -> next () | n -> n in
  cmp a.bench b.bench (fun () ->
      cmp a.n_pes b.n_pes (fun () ->
          cmp
            (Cachesim.Protocol.kind_name a.protocol)
            (Cachesim.Protocol.kind_name b.protocol)
            (fun () ->
              cmp a.line_words b.line_words (fun () ->
                  cmp a.cache_words b.cache_words (fun () -> 0)))))

let sort cells =
  List.sort (fun a b -> compare_config a.config b.config) cells

(* ------------------------------------------------------------------ *)
(* Checkpoint-journal payloads: one completed cell as
   "config_key\nten counters".  Only the integer counters are stored
   (the renderers derive every ratio from them), so a resumed sweep
   reproduces the fault-free grid bit-for-bit. *)

let encode_cell key (m : Cachesim.Metrics.t) =
  Printf.sprintf "%s\n%d %d %d %d %d %d %d %d %d %d" key
    m.Cachesim.Metrics.reads m.Cachesim.Metrics.writes
    m.Cachesim.Metrics.read_misses m.Cachesim.Metrics.write_misses
    m.Cachesim.Metrics.fills m.Cachesim.Metrics.writebacks
    m.Cachesim.Metrics.wt_words m.Cachesim.Metrics.invalidations
    m.Cachesim.Metrics.updates m.Cachesim.Metrics.bus_words

let decode_cell payload =
  match String.index_opt payload '\n' with
  | None -> None
  | Some i -> (
    let key = String.sub payload 0 i in
    let rest = String.sub payload (i + 1) (String.length payload - i - 1) in
    match
      Scanf.sscanf_opt rest "%d %d %d %d %d %d %d %d %d %d"
        (fun reads writes read_misses write_misses fills writebacks wt_words
             invalidations updates bus_words ->
          {
            Cachesim.Metrics.reads;
            writes;
            read_misses;
            write_misses;
            fills;
            writebacks;
            wt_words;
            invalidations;
            updates;
            bus_words;
          })
    with
    | Some m -> Some (key, m)
    | None -> None)

(* ------------------------------------------------------------------ *)
(* Rendering.  Output bytes depend only on the cell values, never on
   scheduling. *)

let to_json cells =
  let module J = Obs.Json in
  let cell c =
    let config =
      [
        ("bench", J.String c.config.bench);
        ("pes", J.Int c.config.n_pes);
        ("protocol", J.String (Cachesim.Protocol.kind_name c.config.protocol));
        ("line_words", J.Int c.config.line_words);
        ("cache_words", J.Int c.config.cache_words);
      ]
    in
    match c.metrics with
    | Ok m ->
      J.Obj
        (config
        @ [
            ("reads", J.Int m.Cachesim.Metrics.reads);
            ("writes", J.Int m.Cachesim.Metrics.writes);
            ("read_misses", J.Int m.Cachesim.Metrics.read_misses);
            ("write_misses", J.Int m.Cachesim.Metrics.write_misses);
            ("fills", J.Int m.Cachesim.Metrics.fills);
            ("writebacks", J.Int m.Cachesim.Metrics.writebacks);
            ("wt_words", J.Int m.Cachesim.Metrics.wt_words);
            ("invalidations", J.Int m.Cachesim.Metrics.invalidations);
            ("updates", J.Int m.Cachesim.Metrics.updates);
            ("bus_words", J.Int m.Cachesim.Metrics.bus_words);
            ("traffic_ratio", J.Float (Cachesim.Metrics.traffic_ratio m));
            ("miss_ratio", J.Float (Cachesim.Metrics.miss_ratio m));
          ])
    | Error e -> J.Obj (config @ [ ("error", J.String e) ])
  in
  J.List (List.map cell cells)

let csv_header =
  "bench,pes,protocol,line_words,cache_words,reads,writes,read_misses,\
   write_misses,fills,writebacks,wt_words,invalidations,updates,bus_words,\
   traffic_ratio,miss_ratio,error"

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv ~areas cells =
  let area_names = List.map Trace.Area.slug Trace.Area.all in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf csv_header;
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf ",%s_reads,%s_writes" n n))
    area_names;
  Buffer.add_char buf '\n';
  List.iter
    (fun cell ->
      let c = cell.config in
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%s,%d,%d," (csv_escape c.bench) c.n_pes
           (csv_escape (Cachesim.Protocol.kind_name c.protocol))
           c.line_words c.cache_words);
      (match cell.metrics with
      | Ok m ->
        Buffer.add_string buf
          (Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%.6f,"
             m.Cachesim.Metrics.reads m.Cachesim.Metrics.writes
             m.Cachesim.Metrics.read_misses m.Cachesim.Metrics.write_misses
             m.Cachesim.Metrics.fills m.Cachesim.Metrics.writebacks
             m.Cachesim.Metrics.wt_words m.Cachesim.Metrics.invalidations
             m.Cachesim.Metrics.updates m.Cachesim.Metrics.bus_words
             (Cachesim.Metrics.traffic_ratio m)
             (Cachesim.Metrics.miss_ratio m))
      | Error e ->
        Buffer.add_string buf
          (Printf.sprintf ",,,,,,,,,,,,%s"
             (csv_escape (String.map (fun c -> if c = '\n' then ' ' else c) e))));
      let rows =
        Option.value ~default:[] (List.assoc_opt (c.bench, c.n_pes) areas)
      in
      List.iter
        (fun n ->
          match List.assoc_opt n rows with
          | Some (r, w) -> Buffer.add_string buf (Printf.sprintf ",%d,%d" r w)
          | None -> Buffer.add_string buf ",,")
        area_names;
      Buffer.add_char buf '\n')
    cells;
  Buffer.contents buf
