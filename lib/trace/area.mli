(** Storage-area taxonomy of RAP-WAM (paper, Table 1).

    Every memory reference the abstract machine makes is tagged with
    the area (and thereby the object kind) it touches.  The locality
    class drives the hybrid cache protocol: [Local] data is private to
    the issuing PE's stack set; [Global] data may be read by other PEs.
    [Code] (instruction fetches) is not in the paper's table: it is
    shared and read-only. *)

type t =
  | Code  (** shared read-only program text: instruction fetches *)
  | Env_control  (** environment frames: saved CP/CE words *)
  | Env_pvar  (** environment frames: permanent variables *)
  | Choice_point
  | Heap
  | Trail
  | Pdl  (** unification push-down list *)
  | Parcall_local  (** parcall frame: parent-private words *)
  | Parcall_global  (** parcall frame: slots read by remote PEs *)
  | Parcall_count  (** parcall frame: goal counters (locked) *)
  | Marker  (** input markers delimiting stack sections *)
  | Goal_frame  (** goal stack entries (locked, stealable) *)
  | Message  (** message buffer *)

val all : t list
val count : int

external to_int : t -> int = "%identity"
(** Dense tag in [0, count): the constructors are declared in tag
    order, so this is free. *)

val of_int : int -> t
(** @raise Invalid_argument outside [0, count). *)

val name : t -> string
(** The paper's row label (e.g. ["Envts./P. Vars."]). *)

val slug : t -> string
(** Machine-friendly identifier (e.g. ["env_pvar"]): lowercase, no
    spaces or punctuation; suitable for CSV column names and JSON
    keys. *)

val region : t -> string
(** The WAM storage region holding the object (Table 1 "area"). *)

val in_wam : t -> bool
(** Is the object part of the standard sequential WAM? *)

val locked : t -> bool
(** Is the object accessed under a lock? *)

type locality = Local | Global

val locality : t -> locality
(** Locality class per Table 1; drives the hybrid protocol's tags. *)

val locality_name : locality -> string
