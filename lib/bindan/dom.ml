(* Abstract domain of the binding/instantiation analysis.

   Two orthogonal properties are tracked per argument position:

   - instantiation at call time: definitely free (an unbound,
     unaliased cell), bound rigid with a known dereference depth, or
     ground;
   - binding conditionality: whether a binding made through this
     position can ever predate a live restore point (a real choice
     point or a parcall trail floor whose restoration is later
     observable).  [Uncond] bindings need no trail entry.

   The instantiation half is seeded from the global groundness /
   freeness analysis ({!Prolog.Abspat}); the conditionality half is
   computed by {!Absint} as a greatest fixpoint over the call graph,
   using the determinacy certificates of lib/detan for the dispatch
   chains. *)

type inst =
  | Free  (** unbound, unaliased variable cell *)
  | Rigid of int  (** bound non-variable; payload = max deref depth *)
  | Ground  (** recursively ground *)
  | Any

type cond =
  | Uncond
      (** no live restore point predates any cell a binding through
          this position can touch *)
  | Cond  (** a choice point or observable trail floor may predate it *)

type arg_fact = { a_inst : inst; a_cond : cond }

let of_gfa : Prolog.Abspat.gfa -> inst = function
  | Prolog.Abspat.Ground -> Ground
  | Prolog.Abspat.Free -> Free
  | Prolog.Abspat.Any -> Any

type pred_fact = {
  pf_pred : string * int;
  pf_args : arg_fact array;  (** index 0 = argument 1 *)
  pf_ddet : bool;  (** every dispatch chain determinacy-certified *)
  pf_uninit : bool array;
      (** argument certified uninitialized output: every consumer's
          first access is a certified write *)
}

let inst_to_string = function
  | Free -> "free"
  | Rigid d -> Printf.sprintf "rigid%d" d
  | Ground -> "ground"
  | Any -> "any"

let cond_to_string = function Uncond -> "uncond" | Cond -> "cond"

let pp_arg fmt a =
  Format.fprintf fmt "%s/%s" (inst_to_string a.a_inst) (cond_to_string a.a_cond)

let pp_pred fmt p =
  Format.fprintf fmt "%s/%d det:%b [" (fst p.pf_pred) (snd p.pf_pred) p.pf_ddet;
  Array.iteri
    (fun i a ->
      if i > 0 then Format.fprintf fmt ", ";
      pp_arg fmt a;
      if p.pf_uninit.(i) then Format.fprintf fmt " uninit")
    p.pf_args;
  Format.fprintf fmt "]"
