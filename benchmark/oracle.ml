(* The independent answer oracle.  Expected answers are computed in
   plain OCaml from the integers written in the query text; the engine
   under test is never consulted.  qsort sorts with [List.sort], tak
   recurses, matrix multiplies A by B, and for deriv the only claim is
   that [dbench] succeeds.

   A [tally] counts attempted and failed operations for the result
   line; a failure is a wrong or missing answer, an unavailable
   supervisor outcome, an engine error, a broken invariant or a digest
   mismatch. *)

type expected =
  | Sorted of int list  (** qsort: S *)
  | Value of int  (** tak: A *)
  | Product of int list list  (** matrix: C *)
  | Succeeds  (** deriv: dbench(E, N) succeeds *)

(* The non-negative integers of a text, in order. *)
let ints_of s =
  let out = ref [] and cur = ref (-1) in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
        let d = Char.code c - Char.code '0' in
        cur := if !cur < 0 then d else (!cur * 10) + d
      | _ ->
        if !cur >= 0 then out := !cur :: !out;
        cur := -1)
    s;
  if !cur >= 0 then out := !cur :: !out;
  List.rev !out

let rec tak x y z =
  if x <= y then z else tak (tak (x - 1) y z) (tak (y - 1) z x) (tak (z - 1) x y)

let rec take n = function
  | x :: rest when n > 0 ->
    let taken, left = take (n - 1) rest in
    (x :: taken, left)
  | l -> ([], l)

let rows n xs =
  let rec go xs = if xs = [] then [] else let r, rest = take n xs in r :: go rest in
  go xs

let isqrt k =
  let r = ref 0 in
  while (!r + 1) * (!r + 1) <= k do incr r done;
  !r

let multiply a b =
  let bt = List.init (List.length (List.hd b)) (fun j -> List.map (fun r -> List.nth r j) b) in
  List.map (fun r -> List.map (fun c -> List.fold_left2 (fun acc x y -> acc + (x * y)) 0 r c) bt) a

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The expected answer of a benchmark query, with the variable that
   carries it; [None] for a query shape the oracle does not know. *)
let expect query =
  let q = String.trim query in
  if starts_with "qsort(" q then Some ("S", Sorted (List.sort compare (ints_of q)))
  else if starts_with "tak(" q then
    match ints_of q with
    | [ x; y; z ] -> Some ("A", Value (tak x y z))
    | _ -> None
  else if starts_with "matrix(" q then
    let xs = ints_of q in
    let n = isqrt (List.length xs / 2) in
    if n = 0 || 2 * n * n <> List.length xs then None
    else
      let a, b = take (n * n) xs in
      Some ("C", Product (multiply (rows n a) (rows n b)))
  else if starts_with "dbench(" q then Some ("", Succeeds)
  else None

let rec int_list = function
  | Prolog.Term.Atom "[]" -> Some []
  | Prolog.Term.Struct (".", [ Prolog.Term.Int x; rest ]) ->
    Option.map (List.cons x) (int_list rest)
  | _ -> None

let matches expected (term : Prolog.Term.t option) =
  match (expected, term) with
  | Succeeds, _ -> true
  | Value v, Some (Prolog.Term.Int x) -> x = v
  | Sorted l, Some t -> int_list t = Some l
  | Product m, Some t -> (
    match Prolog.Term.to_list t with
    | Some rs -> List.map int_list rs = List.map Option.some m
    | None -> false)
  | (Value _ | Sorted _ | Product _), _ -> false

(* A first-solution run: did it succeed with the expected binding? *)
let check_run query ~succeeded ~(answer : Prolog.Term.t option) =
  match expect query with
  | None -> false
  | Some (_, e) -> succeeded && matches e answer

(* The same, for an emulator's result and the variable carrying the
   answer. *)
let check_result query ~var = function
  | Wam.Seq.Success bindings -> check_run query ~succeeded:true ~answer:(List.assoc_opt var bindings)
  | Wam.Seq.Failure -> check_run query ~succeeded:false ~answer:None

(* A served answer set (max_solutions = 1): exactly one solution,
   binding the answer variable as expected. *)
let check_answers query (answers : Memo.Canon.answer list) =
  match (expect query, answers) with
  | Some (var, e), [ sol ] -> matches e (List.assoc_opt var sol)
  | _ -> false

(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** the first few failures, newest first *)
}

let tally () = { attempted = 0; failed = 0; notes = [] }

let record t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.notes < 8 then t.notes <- what () :: t.notes
  end

(* Mark [n] already-attempted operations failed (a digest mismatch
   condemns every cell it covers). *)
let condemn t n what =
  t.failed <- min t.attempted (t.failed + n);
  if List.length t.notes < 8 then t.notes <- what :: t.notes

(* One supervised response: available, no error, and the right
   answer.  Expected answers are cached per query text; a response
   whose answer list is physically the one already verified for its
   query (a memo hit returns the stored list) is not re-compared. *)
type cache = (string, Memo.Canon.answer list) Hashtbl.t

let cache () : cache = Hashtbl.create 256

let check_response t (seen : cache) (r : Server.Supervise.response) =
  let rs = r.Server.Supervise.sv in
  let q = rs.Server.Serve.rs_query in
  let problem =
    if not (Server.Supervise.available r.Server.Supervise.sv_outcome) then
      Some ("outcome " ^ Server.Supervise.outcome_name r.Server.Supervise.sv_outcome)
    else if rs.Server.Serve.rs_error <> None then Some ("error " ^ Option.get rs.Server.Serve.rs_error)
    else
      match Hashtbl.find_opt seen q with
      | Some a when a == rs.Server.Serve.rs_answers -> None
      | _ ->
        if check_answers q rs.Server.Serve.rs_answers then begin
          Hashtbl.replace seen q rs.Server.Serve.rs_answers;
          None
        end
        else Some "wrong answer"
  in
  record t (problem = None) (fun () -> Printf.sprintf "%s: %s" (Option.get problem) q)
