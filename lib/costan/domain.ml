(* The cost domain: asymptotic classes and saturating intervals.

   A predicate's cost is described on two levels.  The *class* is the
   symbolic growth rate of its resolution-step count as a function of
   input size, obtained by recurrence extraction over the call-graph
   SCCs (Debray & Lin's scheme, restricted to the structural and
   integer metrics the benchmarks need).  The *interval* is a concrete
   [lo, hi] bound in resolution steps or memory references for one
   specific query, obtained by abstract execution from the query's
   actual arguments.  Classes gate what the annotator may
   sequentialize; intervals feed the per-area reference predictions
   checked against traces. *)

type cls =
  | Constant
  | Linear
  | Poly of int  (* degree >= 2 *)
  | Expo
  | Unknown

let cls_name = function
  | Constant -> "constant"
  | Linear -> "linear"
  | Poly d -> Printf.sprintf "poly(%d)" d
  | Expo -> "expo"
  | Unknown -> "unknown"

let degree = function
  | Constant -> Some 0
  | Linear -> Some 1
  | Poly d -> Some d
  | Expo | Unknown -> None

let of_degree d = if d <= 0 then Constant else if d = 1 then Linear else Poly d

(* Least upper bound in Constant < Linear < Poly < Expo < Unknown.
   Unknown is top: "no bound claimed" absorbs even Expo. *)
let join_cls a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> Unknown
  | Expo, _ | _, Expo -> Expo
  | a, b -> (
    match (degree a, degree b) with
    | Some da, Some db -> of_degree (max da db)
    | _ -> Unknown)

(* ------------------------------------------------------------------ *)
(* Saturating non-negative intervals.  The cap keeps products of deep
   recurrences from overflowing native ints; a capped bound still
   orders correctly against any measurable count. *)

type interval = { lo : int; hi : int }

let cap = 1 lsl 49
let sat n = if n < 0 then 0 else if n > cap then cap else n
let itv lo hi = { lo = sat lo; hi = sat (max lo hi) }
let point n = itv n n
let zero = point 0
let is_zero i = i.lo = 0 && i.hi = 0
let add a b = { lo = sat (a.lo + b.lo); hi = sat (a.hi + b.hi) }

let join a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let shift n i = { lo = sat (i.lo + n); hi = sat (i.hi + n) }

let exact i = i.lo = i.hi

(* Geometric midpoint: the representative value quoted when a single
   number is wanted from a bound.  Geometric, not arithmetic, so that
   a [n, 4n] interval is reported as 2n (off by the same factor both
   ways). *)
let mid i =
  if i.lo <= 0 then (i.lo + i.hi) / 2
  else
    let m =
      int_of_float (sqrt (float_of_int i.lo *. float_of_int i.hi))
    in
    max i.lo (min i.hi m)

let pp_interval fmt i =
  if exact i then Format.fprintf fmt "%d" i.lo
  else Format.fprintf fmt "[%d,%d]" i.lo i.hi
