(** Shared address-space layout.

    One flat word-addressed space.  PE [p]'s stack set occupies the
    4M-word region starting at [p lsl region_bits]; inside a region the
    storage areas (heap, local stack, control stack, trail, PDL, goal
    stack, message buffer) sit at fixed offsets.  Code is a separate
    shared read-only region whose addresses appear only in traces. *)

val region_bits : int
val region_words : int
val code_base : int

(** {1 Area bases and limits, per PE} *)

val heap_base : int -> int
val heap_limit : int -> int
val local_base : int -> int
val local_limit : int -> int
val control_base : int -> int
val control_limit : int -> int
val trail_base : int -> int
val trail_limit : int -> int
val pdl_base : int -> int
val pdl_limit : int -> int
val goal_base : int -> int
val goal_limit : int -> int
val msg_base : int -> int
val msg_limit : int -> int

(** {1 Sizes (words)} *)

val heap_size : int
val local_size : int
val control_size : int
val trail_size : int
val pdl_size : int
val goal_size : int

(** {1 Address classification} *)

val pe_of_addr : int -> int
(** Owning PE, or [-1] for the shared code region. *)

val offset_of_addr : int -> int

val area_of_addr : int -> Trace.Area.t
(** Default area classification by address, used for generic term-cell
    accesses (explicit control accesses pass their own tags). *)

val is_local_stack_addr : int -> bool
