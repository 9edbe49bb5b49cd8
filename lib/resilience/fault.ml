(* Deterministic fault injection.

   A plan is a fixed set of (site, kind, occurrence) triples.  Every
   instrumented point in the pipeline names its site and asks the plan
   whether this occurrence should fail; each planned fault fires at
   most once, and occurrence counters are per-site under a mutex, so a
   given plan produces the same faults on every run regardless of how
   the work is scheduled across domains.

   Sites are a closed registry: asking about an unregistered site is a
   programming error, so a typo in an instrumentation point cannot
   silently make a planned fault unreachable. *)

type kind = Truncate | Bit_flip | Eio | Stall | Crash

let kinds = [ Truncate; Bit_flip; Eio; Stall; Crash ]

let kind_name = function
  | Truncate -> "truncate"
  | Bit_flip -> "bit-flip"
  | Eio -> "eio"
  | Stall -> "stall"
  | Crash -> "crash"

let kind_of_name n = List.find_opt (fun k -> kind_name k = n) kinds

let sites =
  [
    "trace-write"; "block-flush"; "cell-start"; "sim-step"; "journal-append";
    "snapshot-write"; "breaker-probe";
  ]

exception Injected of { site : string; kind : kind; occurrence : int }

let () =
  Printexc.register_printer (function
    | Injected { site; kind; occurrence } ->
      Some
        (Printf.sprintf "injected fault: %s at site %s (occurrence %d)"
           (kind_name kind) site occurrence)
    | _ -> None)

type entry = { site : string; kind : kind; at : int; mutable fired : bool }

type plan = {
  entries : entry list;
  counters : (string, int ref) Hashtbl.t;
  stall_s : float;
  lock : Mutex.t;
  spec : string;
}

let default_stall_s = 0.2

let make ?(stall_s = default_stall_s) triples =
  List.iter
    (fun (site, _, _) ->
      if not (List.mem site sites) then
        invalid_arg (Printf.sprintf "Fault.make: unknown site %S" site))
    triples;
  {
    entries =
      List.map (fun (site, kind, at) -> { site; kind; at; fired = false })
        triples;
    counters = Hashtbl.create 8;
    stall_s;
    lock = Mutex.create ();
    spec =
      String.concat ","
        (List.map
           (fun (site, kind, at) ->
             Printf.sprintf "%s:%s@%d" site (kind_name kind) at)
           triples);
  }

(* A multiplicative LCG (Park-Miller), the same family the benchmark
   input generators use, so seeded plans are host-independent. *)
let lcg seed =
  let state = ref (if seed land 0x7fffffff = 0 then 1 else seed land 0x7fffffff) in
  fun bound ->
    state := 16807 * !state mod 0x7fffffff;
    !state mod bound

(* A seeded plan: three (site, kind, occurrence) triples. *)
let of_seed ?stall_s seed =
  let next = lcg seed in
  let n_sites = List.length sites and n_kinds = List.length kinds in
  let triples =
    List.init 3 (fun _ ->
        (List.nth sites (next n_sites), List.nth kinds (next n_kinds), next 3))
  in
  let p = make ?stall_s triples in
  { p with spec = Printf.sprintf "seed:%d" seed }

let of_spec spec =
  let items =
    List.filter (fun s -> s <> "")
      (List.map String.trim (String.split_on_char ',' spec))
  in
  let parse_item (triples, stall_s, seed) item =
    match String.index_opt item ':' with
    | None -> Error (Printf.sprintf "fault %S: expected SITE:KIND[@N]" item)
    | Some i -> (
      let head = String.sub item 0 i in
      let rest = String.sub item (i + 1) (String.length item - i - 1) in
      match head with
      | "seed" -> (
        match int_of_string_opt rest with
        | Some n -> Ok (triples, stall_s, Some n)
        | None -> Error (Printf.sprintf "seed:%S is not an integer" rest))
      | "stall-s" -> (
        match float_of_string_opt rest with
        | Some s when s >= 0. -> Ok (triples, Some s, seed)
        | _ -> Error (Printf.sprintf "stall-s:%S is not a duration" rest))
      | site when List.mem site sites -> (
        let kind_s, at =
          match String.index_opt rest '@' with
          | None -> (rest, Ok 0)
          | Some j ->
            let n = String.sub rest (j + 1) (String.length rest - j - 1) in
            ( String.sub rest 0 j,
              match int_of_string_opt n with
              | Some k when k >= 0 -> Ok k
              | _ -> Error (Printf.sprintf "%S: bad occurrence %S" item n) )
        in
        match (kind_of_name kind_s, at) with
        | _, Error e -> Error e
        | None, _ ->
          Error
            (Printf.sprintf "%S: unknown fault kind %S (expected %s)" item
               kind_s
               (String.concat "|" (List.map kind_name kinds)))
        | Some kind, Ok at -> Ok ((site, kind, at) :: triples, stall_s, seed))
      | site ->
        Error
          (Printf.sprintf "unknown fault site %S (registry: %s)" site
             (String.concat ", " sites)))
  in
  let rec go acc = function
    | [] -> Ok acc
    | item :: rest -> (
      match parse_item acc item with
      | Ok acc -> go acc rest
      | Error _ as e -> e)
  in
  (* Two entries pinned to the same site and occurrence are
     contradictory: a site's Nth visit happens once, so at most one of
     them could ever fire and the rest are silently dead.  Reject the
     spec instead of accepting a plan that cannot mean what it says. *)
  let duplicate triples =
    let seen = Hashtbl.create 8 in
    List.find_map
      (fun (site, kind, at) ->
        match Hashtbl.find_opt seen (site, at) with
        | Some prior_kind ->
          Some
            (Printf.sprintf
               "duplicate fault %s:%s@%d: occurrence %d of site %s is \
                already taken by %s:%s@%d (a site occurrence happens once, \
                so only one planned fault can fire there)"
               site (kind_name kind) at at site site (kind_name prior_kind)
               at)
        | None ->
          Hashtbl.add seen (site, at) kind;
          None)
      triples
  in
  match go ([], None, None) items with
  | Error e -> Error e
  | Ok (triples, stall_s, seed) -> (
    match (seed, triples) with
    | Some n, [] -> Ok (of_seed ?stall_s n)
    | Some _, _ :: _ -> Error "seed:N cannot be combined with explicit faults"
    | None, triples -> (
      match duplicate (List.rev triples) with
      | Some e -> Error e
      | None -> Ok { (make ?stall_s (List.rev triples)) with spec }))

let to_string p = p.spec

(* [fire] is the single decision point: bump this site's occurrence
   counter and return the planned kind, if any, marking it spent. *)
let fire plan site =
  match plan with
  | None -> None
  | Some p ->
    if not (List.mem site sites) then
      invalid_arg (Printf.sprintf "Fault.fire: unknown site %S" site);
    Mutex.protect p.lock (fun () ->
        let c =
          match Hashtbl.find_opt p.counters site with
          | Some c -> c
          | None ->
            let c = ref 0 in
            Hashtbl.add p.counters site c;
            c
        in
        let occurrence = !c in
        incr c;
        match
          List.find_opt
            (fun e -> (not e.fired) && e.site = site && e.at = occurrence)
            p.entries
        with
        | Some e ->
          e.fired <- true;
          Some (e.kind, occurrence)
        | None -> None)

let stall plan =
  Unix.sleepf (match plan with Some p -> p.stall_s | None -> default_stall_s)

(* For compute sites (no bytes to corrupt): a stall sleeps, everything
   else becomes the typed exception. *)
let hit ?plan site =
  match fire plan site with
  | None -> ()
  | Some (Stall, _) -> stall plan
  | Some (kind, occurrence) -> raise (Injected { site; kind; occurrence })

(* The I/O fault model: the one place that decides what a fault does
   to the bytes of a write, be they one frame or a whole file. *)
let io plan site ~from s =
  let n = String.length s in
  match fire plan site with
  | None -> (s, true)
  | Some (Stall, _) ->
    stall plan;
    (s, true)
  | Some (Truncate, _) -> (String.sub s 0 (n / 2), false)
  | Some (Bit_flip, _) ->
    let i = min (from + ((n - from) / 2)) (n - 1) in
    ( String.mapi
        (fun j c -> if j = i then Char.chr (Char.code c lxor 0x10) else c)
        s,
      true )
  | Some (kind, occurrence) -> raise (Injected { site; kind; occurrence })
