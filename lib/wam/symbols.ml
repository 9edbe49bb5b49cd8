(* Interning of atoms and functors.

   Atom ids index the atom-name table; a functor id uniquely encodes a
   (name, arity) pair.  Predicates are identified by the functor id of
   their head.  [[]] is interned first, so it is atom 0 of every
   table. *)

type t = {
  atoms : (string, int) Hashtbl.t;
  atom_names : string Vec.t;
  functors : (int * int, int) Hashtbl.t; (* (atom id, arity) -> functor id *)
  functor_defs : (int * int) Vec.t; (* functor id -> (atom id, arity) *)
}

let nil = 0

let create () =
  let t =
    {
      atoms = Hashtbl.create 256;
      atom_names = Vec.create ~dummy:"";
      functors = Hashtbl.create 256;
      functor_defs = Vec.create ~dummy:(0, 0);
    }
  in
  Hashtbl.add t.atoms "[]" nil;
  Vec.add t.atom_names "[]";
  t

let copy t =
  {
    atoms = Hashtbl.copy t.atoms;
    atom_names = Vec.copy t.atom_names;
    functors = Hashtbl.copy t.functors;
    functor_defs = Vec.copy t.functor_defs;
  }

(* Interning only appends, so the ids past [base]'s are exactly the
   names interned since the copy. *)
let cut_back t ~base =
  for id = Vec.length base.functor_defs to Vec.length t.functor_defs - 1 do
    Hashtbl.remove t.functors (Vec.get t.functor_defs id)
  done;
  Vec.truncate t.functor_defs (Vec.length base.functor_defs);
  for id = Vec.length base.atom_names to Vec.length t.atom_names - 1 do
    Hashtbl.remove t.atoms (Vec.get t.atom_names id)
  done;
  Vec.truncate t.atom_names (Vec.length base.atom_names)

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
