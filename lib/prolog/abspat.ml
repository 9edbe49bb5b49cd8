(* Abstract call/success patterns: the interface between the global
   groundness/sharing analysis (lib/analysis) and the CGE annotator.

   The per-argument lattice is Ground < Any > Free (Ground and Free
   are incomparable bottoms joined at Any); sharing is a set of
   unordered position pairs.  join/equal make patterns a finite
   lattice, so the analysis fixpoint terminates without a real
   widening (the iteration cap in the fixpoint engine is a safety
   net). *)

type gfa = Ground | Free | Any

type pattern = {
  args : gfa array;
  share : (int * int) list; (* sorted, normalized i <= j *)
}

type entry = { call : pattern; success : pattern }

type t = { table : (string * int, entry) Hashtbl.t }

let create () = { table = Hashtbl.create 32 }

let set t ~name ~arity entry = Hashtbl.replace t.table (name, arity) entry

let find t ~name ~arity = Hashtbl.find_opt t.table (name, arity)

let reached t ~name ~arity = Hashtbl.mem t.table (name, arity)

let iter t f =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] in
  List.iter
    (fun k -> f k (Hashtbl.find t.table k))
    (List.sort compare keys)

let size t = Hashtbl.length t.table

(* ------------------------------------------------------------------ *)

let bottom n = { args = Array.make n Ground; share = [] }

let top n =
  let share = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i do
      share := (i, j) :: !share
    done
  done;
  { args = Array.make n Any; share = !share }

let join_gfa a b =
  match (a, b) with
  | Ground, Ground -> Ground
  | Free, Free -> Free
  | _, _ -> Any

let join a b =
  let n = Array.length a.args in
  let args = Array.init n (fun i -> join_gfa a.args.(i) b.args.(i)) in
  (* drop pairs whose positions stayed ground in the join *)
  let keep (i, j) = args.(i) <> Ground && args.(j) <> Ground in
  let share =
    List.sort_uniq compare (List.filter keep (a.share @ b.share))
  in
  { args; share }

let equal_pattern a b =
  a.args = b.args && List.sort compare a.share = List.sort compare b.share

let gfa_to_string = function Ground -> "g" | Free -> "f" | Any -> "?"

let pp_pattern fmt p =
  Format.fprintf fmt "(%s)"
    (String.concat ","
       (Array.to_list (Array.map gfa_to_string p.args)));
  match p.share with
  | [] -> ()
  | pairs ->
    Format.fprintf fmt " share:%s"
      (String.concat ","
         (List.map (fun (i, j) -> Printf.sprintf "%d-%d" i j) pairs))

let pp_entry fmt e =
  Format.fprintf fmt "call %a -> success %a" pp_pattern e.call pp_pattern
    e.success

let pp fmt t =
  iter t (fun (name, arity) e ->
      Format.fprintf fmt "%s/%d: %a@," name arity pp_entry e)
