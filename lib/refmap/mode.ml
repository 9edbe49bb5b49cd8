(* The access-mode lattice.

   One mode per (predicate, storage area) summarizes every reference
   the predicate's own code can make to that area:

     Nil          never touched
     Read         read-only
     Write_once   single-assignment binding writes (heap cells and
                  permanent variables: bind, structure building, and
                  the trailed resets that undo bindings on failure)
     Local_write  multi-write but PE-private (own environments, choice
                  points, trail, PDL, parent-private parcall words,
                  markers)
     Shared_write cross-PE coordination words written under the
                  parallel protocol (parcall slots/counters, goal
                  frames, message buffers)

   The order is linear: each level permits everything below it, so
   join is [max].  Classification is by area — which level a write
   needs is a property of the storage area's discipline, computed by
   [w_mode]. *)

type t = Nil | Read | Write_once | Local_write | Shared_write

let to_int = function
  | Nil -> 0
  | Read -> 1
  | Write_once -> 2
  | Local_write -> 3
  | Shared_write -> 4

let join a b = if to_int a >= to_int b then a else b
let leq a b = to_int a <= to_int b

let name = function
  | Nil -> "nil"
  | Read -> "read"
  | Write_once -> "write-once"
  | Local_write -> "local-write"
  | Shared_write -> "shared-write"

(* Minimum mode that permits a write to the area (reads need [Read]). *)
let w_mode (a : Trace.Area.t) =
  match a with
  | Trace.Area.Heap | Trace.Area.Env_pvar -> Write_once
  | Trace.Area.Env_control | Trace.Area.Choice_point | Trace.Area.Trail
  | Trace.Area.Pdl | Trace.Area.Parcall_local | Trace.Area.Marker ->
    Local_write
  | Trace.Area.Parcall_global | Trace.Area.Parcall_count
  | Trace.Area.Goal_frame | Trace.Area.Message ->
    Shared_write
  | Trace.Area.Code -> Shared_write (* read-only: any write is flagged *)

(* Minimum mode that permits one access. *)
let of_op area (op : Trace.Ref_record.op) =
  match op with
  | Trace.Ref_record.Read -> Read
  | Trace.Ref_record.Write -> w_mode area
