(* Storage-area taxonomy of RAP-WAM (paper, Table 1).

   Every memory reference the abstract machine makes is tagged with the
   area (and thereby the object kind) it touches.  The locality class
   drives the hybrid cache protocol: [Local] data is private to the
   issuing PE's stack set and may be copied back lazily; [Global] data
   may be read by other PEs and must be kept consistent in shared
   memory.  [lock] marks objects accessed under mutual exclusion. *)

type t =
  | Code (* shared read-only program text: instruction fetches *)
  | Env_control (* environment frames: saved CP/CE words *)
  | Env_pvar (* environment frames: permanent variables *)
  | Choice_point
  | Heap
  | Trail
  | Pdl (* unification push-down list *)
  | Parcall_local (* parcall frame: parent-private words *)
  | Parcall_global (* parcall frame: slots read by remote PEs *)
  | Parcall_count (* parcall frame: goal counters (locked) *)
  | Marker (* input/end markers delimiting stack sections *)
  | Goal_frame (* goal stack entries (locked, stealable) *)
  | Message (* message buffer *)

let all =
  [
    Code; Env_control; Env_pvar; Choice_point; Heap; Trail; Pdl;
    Parcall_local; Parcall_global; Parcall_count; Marker; Goal_frame;
    Message;
  ]

let count = List.length all

(* The constructors are declared in tag order, so a constructor's
   representation is its tag. *)
external to_int : t -> int = "%identity"

let of_int = function
  | 0 -> Code
  | 1 -> Env_control
  | 2 -> Env_pvar
  | 3 -> Choice_point
  | 4 -> Heap
  | 5 -> Trail
  | 6 -> Pdl
  | 7 -> Parcall_local
  | 8 -> Parcall_global
  | 9 -> Parcall_count
  | 10 -> Marker
  | 11 -> Goal_frame
  | 12 -> Message
  | n -> invalid_arg (Printf.sprintf "Area.of_int %d" n)

let name = function
  | Code -> "Code"
  | Env_control -> "Envts./control"
  | Env_pvar -> "Envts./P. Vars."
  | Choice_point -> "Choice points"
  | Heap -> "Heap"
  | Trail -> "Trail entries"
  | Pdl -> "PDL entries"
  | Parcall_local -> "Parcall F./Local"
  | Parcall_global -> "Parcall F./Global"
  | Parcall_count -> "Parcall F./Counts"
  | Marker -> "Markers"
  | Goal_frame -> "Goal Frames"
  | Message -> "Messages"

(* Machine-friendly identifier (CSV column names, JSON keys): the
   constructor name, lowercased. *)
let slug = function
  | Code -> "code"
  | Env_control -> "env_control"
  | Env_pvar -> "env_pvar"
  | Choice_point -> "choice_point"
  | Heap -> "heap"
  | Trail -> "trail"
  | Pdl -> "pdl"
  | Parcall_local -> "parcall_local"
  | Parcall_global -> "parcall_global"
  | Parcall_count -> "parcall_count"
  | Marker -> "marker"
  | Goal_frame -> "goal_frame"
  | Message -> "message"

(* The WAM storage region holding the object (paper, Table 1 "area"). *)
let region = function
  | Code -> "Code"
  | Env_control | Env_pvar | Choice_point -> "Stack"
  | Heap -> "Heap"
  | Trail -> "Trail"
  | Pdl -> "PDL"
  | Parcall_local | Parcall_global | Parcall_count | Marker -> "Stack"
  | Goal_frame -> "G. Stack"
  | Message -> "M. Buff."

(* Is the object part of the standard sequential WAM? *)
let in_wam = function
  | Code | Env_control | Env_pvar | Choice_point | Heap | Trail | Pdl -> true
  | Parcall_local | Parcall_global | Parcall_count | Marker | Goal_frame
  | Message ->
    false

(* Is the object accessed under a lock? *)
let locked = function
  | Parcall_count | Goal_frame | Message -> true
  | Code | Env_control | Env_pvar | Choice_point | Heap | Trail | Pdl
  | Parcall_local | Parcall_global | Marker ->
    false

type locality = Local | Global

(* Locality class per Table 1.  [Code] is not in the paper's table; it
   is read-only and shared, which behaves as Global for coherency (but
   never invalidates, having no writes after load). *)
let locality = function
  | Env_control | Choice_point | Trail | Pdl | Parcall_local | Marker ->
    Local
  | Code | Env_pvar | Heap | Parcall_global | Parcall_count | Goal_frame
  | Message ->
    Global

let locality_name = function Local -> "Local" | Global -> "Global"
