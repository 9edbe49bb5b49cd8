(* Interning of atoms and functors.

   Atom ids index the atom-name table; a functor id uniquely encodes a
   (name, arity) pair.  Predicates are identified by the functor id of
   their head. *)

type t = {
  atoms : (string, int) Hashtbl.t;
  atom_names : string Vec.t;
  functors : (int * int, int) Hashtbl.t; (* (atom id, arity) -> functor id *)
  functor_defs : (int * int) Vec.t; (* functor id -> (atom id, arity) *)
}

let create () =
  {
    atoms = Hashtbl.create 256;
    atom_names = Vec.create ~dummy:"";
    functors = Hashtbl.create 256;
    functor_defs = Vec.create ~dummy:(0, 0);
  }

let copy t =
  {
    atoms = Hashtbl.copy t.atoms;
    atom_names = Vec.copy t.atom_names;
    functors = Hashtbl.copy t.functors;
    functor_defs = Vec.copy t.functor_defs;
  }

let atom t name =
  match Hashtbl.find_opt t.atoms name with
  | Some id -> id
  | None ->
    let id = Vec.length t.atom_names in
    Hashtbl.add t.atoms name id;
    Vec.add t.atom_names name;
    id

let atom_name t id = Vec.get t.atom_names id

let functor_ t name arity =
  let aid = atom t name in
  match Hashtbl.find_opt t.functors (aid, arity) with
  | Some id -> id
  | None ->
    let id = Vec.length t.functor_defs in
    Hashtbl.add t.functors (aid, arity) id;
    Vec.add t.functor_defs (aid, arity);
    id

let functor_def t fid = Vec.get t.functor_defs fid

let functor_name t fid =
  let aid, _ = functor_def t fid in
  atom_name t aid

let functor_arity t fid = snd (functor_def t fid)

let spec_string t fid =
  Printf.sprintf "%s/%d" (functor_name t fid) (functor_arity t fid)
