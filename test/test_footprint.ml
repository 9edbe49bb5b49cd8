(* The instruction footprint table (Wam.Access) checked against the
   trace, through the one attributor (Wam.Profile): on the nine
   benchmarks (the four at quick inputs and the Table-3 population),
   sequentially, at 1/4/8 PEs plain, with detan's plan and with
   detan's plus bindan's plans, every window's (area, direction) pairs
   lie in its instruction's entries (plus the failure path's when the
   instruction may fail), and on an instruction that cannot fail each
   area's count lies in its interval.  In the sequential plain runs a
   may-fail instruction's counts lie in its intervals too, in the
   windows that did not fail (no choice-point or trail read).  Also:
   the profile's rows, runtime row included, sum to the run's
   per-area counts. *)

module B = Certification.Make (Bindan.Instance)

let benchmarks () =
  Benchlib.Inputs.small_benchmarks () @ Benchlib.Large.population ()

let pes = [ 1; 4; 8 ]

let contains code p =
  let n = Wam.Code.length code in
  let rec go i = i < n && (p (Wam.Code.fetch code i) || go (i + 1)) in
  go 0

let ops = [ Trace.Ref_record.Read; Trace.Ref_record.Write ]

(* Area [k]'s reads count at slot [2k], its writes at [2k + 1]. *)
let slot area (op : Trace.Ref_record.op) =
  (2 * Trace.Area.to_int area)
  + match op with Trace.Ref_record.Read -> 0 | Trace.Ref_record.Write -> 1

let op_name = function
  | Trace.Ref_record.Read -> "read"
  | Trace.Ref_record.Write -> "write"

(* What the table allows at one code index: the (area, direction)
   slots as a bit set, whether the instruction may fail, and each
   area's interval, indexed by area tag. *)
type allowed = { slots : int; fails : bool; lo : int array; hi : int array }

let allowed ~failure ~arity ~shallow i =
  let entries = Wam.Access.of_instr ~shallow ~arity i in
  let fails = Wam.Access.may_fail i in
  let bits entries =
    List.fold_left
      (fun acc (x : Wam.Access.entry) ->
        List.fold_left (fun acc op -> acc lor (1 lsl slot x.area op)) acc x.ops)
      0 entries
  in
  let lo = Array.make Trace.Area.count 0
  and hi = Array.make Trace.Area.count 0 in
  List.iter
    (fun (x : Wam.Access.entry) ->
      let k = Trace.Area.to_int x.area in
      lo.(k) <- x.lo;
      hi.(k) <- x.hi)
    entries;
  {
    slots = (bits entries lor if fails then bits failure else 0);
    fails;
    lo;
    hi;
  }

(* A PE's open window: the fetched code index, its references by area
   and direction, and the slots they touched. *)
type window = { mutable idx : int; counts : int array; mutable touched : int }

(* Run [prog] through [run], attributing its references as they come,
   and add every refuted (instruction, area, finding) to [refuted]
   with the windows that refute it and where they ran.  With
   [success_windows], the counts of a may-fail instruction are checked
   too, in the windows that read neither a choice point nor the trail:
   those that did not fail. *)
let check ?(success_windows = false) refuted ~label (prog : Wam.Program.t) run =
  let code = prog.Wam.Program.code and symbols = prog.Wam.Program.symbols in
  let parallel =
    contains code (function Wam.Instr.Alloc_parcall _ -> true | _ -> false)
  and shallow =
    contains code (function
      | Wam.Instr.Try (_, Wam.Instr.Shallow) -> true
      | _ -> false)
  in
  let failure = Wam.Access.failure ~parallel in
  let prof = Wam.Profile.create symbols code in
  let table =
    Array.init (Wam.Code.length code) (fun idx ->
        let arity =
          match Wam.Profile.owner prof idx with
          | Some c -> Wam.Symbols.functor_arity symbols c.Wam.Profile.fid
          | None -> 0
        in
        allowed ~failure ~arity ~shallow (Wam.Code.fetch code idx))
  in
  let refute i area finding =
    let key = (Wam.Instr.opcode_name (Wam.Instr.opcode i), area, finding) in
    let n, where, example =
      match Hashtbl.find_opt refuted key with
      | Some v -> v
      | None -> (0, label, Format.asprintf "%a" Wam.Instr.pp i)
    in
    Hashtbl.replace refuted key (n + 1, where, example)
  in
  let windows = ref 0 in
  let close w =
    incr windows;
    let a = table.(w.idx) in
    let i () = Wam.Code.fetch code w.idx in
    let stray = w.touched land lnot a.slots in
    if stray <> 0 then
      List.iter
        (fun area ->
          List.iter
            (fun op ->
              if stray land (1 lsl slot area op) <> 0 then
                refute (i ()) area (op_name op))
            ops)
        Trace.Area.all;
    let read area = w.counts.(slot area Trace.Ref_record.Read) in
    let succeeded () =
      read Trace.Area.Choice_point = 0 && read Trace.Area.Trail = 0
    in
    if (not a.fails) || (success_windows && succeeded ()) then
      for k = 0 to Trace.Area.count - 1 do
        let total = w.counts.(2 * k) + w.counts.((2 * k) + 1) in
        let area = Trace.Area.of_int k in
        if total < a.lo.(k) then
          refute (i ()) area (Printf.sprintf "below %d" a.lo.(k))
        else if total > a.hi.(k) then
          refute (i ()) area (Printf.sprintf "above %d" a.hi.(k))
      done
  in
  (* one window record per PE, reset at each fetch *)
  let per_pe =
    Array.init (Trace.Ref_record.max_pe + 1) (fun _ ->
        { idx = 0; counts = Array.make (2 * Trace.Area.count) 0; touched = 0 })
  in
  let sink, finish =
    Wam.Profile.attribute prof
      {
        Wam.Profile.fetch =
          (fun r _ idx ->
            let w = per_pe.(r.Trace.Ref_record.pe) in
            w.idx <- idx;
            Array.fill w.counts 0 (Array.length w.counts) 0;
            w.touched <- 0;
            w);
        data =
          (fun w r ->
            let k = slot r.Trace.Ref_record.area r.Trace.Ref_record.op in
            w.counts.(k) <- w.counts.(k) + 1;
            w.touched <- w.touched lor (1 lsl k));
        close;
        runtime = ignore;
      }
  in
  run sink;
  finish ();
  if !windows = 0 then Alcotest.failf "%s: no window attributed" label

(* The plain builds, run sequentially and then by RAP-WAM at each PE
   count, each feeding the sink it is given; [true] marks the
   sequential run. *)
let plain_runs (b : Benchlib.Programs.benchmark) =
  let name = b.Benchlib.Programs.name in
  let seq = Benchlib.Runner.prepare ~parallel:false b in
  let par = Benchlib.Runner.prepare ~parallel:true b in
  ( Printf.sprintf "%s seq" name,
    true,
    seq,
    fun sink -> ignore (Wam.Seq.run ~sink seq) )
  :: List.map
       (fun n_pes ->
         ( Printf.sprintf "%s %dpe" name n_pes,
           false,
           par,
           fun sink -> ignore (Rapwam.Sim.run ~sink ~n_workers:n_pes par) ))
       pes

let test_windows_within_table () =
  let refuted = Hashtbl.create 16 in
  List.iter
    (fun (b : Benchlib.Programs.benchmark) ->
      let name = b.Benchlib.Programs.name in
      List.iter
        (fun (label, sequential, prog, run) ->
          check ~success_windows:sequential refuted ~label prog run)
        (plain_runs b);
      (* detan's plan (bindan's base build), then detan's plus
         bindan's (its variant build) *)
      let r = B.analyze b in
      List.iter
        (fun (what, (build : Certification.compiled)) ->
          List.iter
            (fun n_pes ->
              check refuted
                ~label:(Printf.sprintf "%s %s %dpe" name what n_pes)
                build.prog
                (fun sink ->
                  ignore (Rapwam.Sim.run ~sink ~n_workers:n_pes build.prog)))
            pes)
        [ ("det", r.base_build); ("det+bind", Option.get r.variant_build) ])
    (benchmarks ());
  let lines =
    Hashtbl.fold
      (fun (op, area, finding) (n, where, example) acc ->
        Printf.sprintf "%s: %s %s in %d window(s), first in %s (%s)" op
          (Trace.Area.slug area) finding n where example
        :: acc)
      refuted []
  in
  if lines <> [] then
    Alcotest.failf "the trace refutes Wam.Access:\n%s"
      (String.concat "\n" (List.sort compare lines))

(* Per area, the predicates' data refs plus the runtime row equal the
   run's count, and their instrs plus the fetches outside every
   predicate equal its Code reads: read off Profile.to_json, the rows
   rapwam_run --profile --json writes. *)
let test_profile_sums () =
  let member key = function
    | Obs.Json.Obj kvs ->
      Option.value ~default:Obs.Json.Null (List.assoc_opt key kvs)
    | _ -> Obs.Json.Null
  in
  let int = function Obs.Json.Int n -> n | _ -> 0 in
  List.iter
    (fun (b : Benchlib.Programs.benchmark) ->
      List.iter
        (fun (label, _, (prog : Wam.Program.t), run) ->
          let stats = Trace.Areastats.create () in
          let p =
            Wam.Profile.create prog.Wam.Program.symbols prog.Wam.Program.code
          in
          run
            (Trace.Sink.tee (Trace.Areastats.sink stats) (Wam.Profile.sink p));
          let rows =
            match Wam.Profile.to_json p with
            | Obs.Json.List rows -> rows
            | _ -> Alcotest.fail "profile is not an array"
          in
          let sum f = List.fold_left (fun acc row -> acc + f row) 0 rows in
          Alcotest.(check bool)
            (label ^ ": the runtime row is last") true
            (match List.rev rows with
            | last :: _ -> member "predicate" last = Obs.Json.String "(runtime)"
            | [] -> false);
          Alcotest.(check int)
            (label ^ ": instrs")
            (Trace.Areastats.reads stats Trace.Area.Code)
            (sum (fun row -> int (member "instrs" row)));
          List.iter
            (fun area ->
              if area <> Trace.Area.Code then
                Alcotest.(check int)
                  (Printf.sprintf "%s: %s refs" label (Trace.Area.slug area))
                  (Trace.Areastats.refs stats area)
                  (sum (fun row ->
                       let refs = member "refs" row in
                       int (member (Trace.Area.name area) refs))))
            Trace.Area.all)
        (plain_runs b))
    (benchmarks ())

let suite =
  [
    Alcotest.test_case "every window lies in its Access entry" `Slow
      test_windows_within_table;
    Alcotest.test_case "profile rows sum to the run's area counts" `Quick
      test_profile_sums;
  ]
