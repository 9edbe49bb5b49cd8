(** The code area: a growable instruction table with a predicate entry
    map and backpatching support for forward labels.

    Instruction "addresses" are indices into the table; for tracing
    they map into the shared read-only code region. *)

type t

val create : unit -> t

val copy : t -> t
(** An independent code area with the same instructions and entries;
    emitting into the copy leaves the original unchanged. *)

val cut_back : t -> base:t -> bool
(** [cut_back t ~base], where [t] is a {!copy} of [base] that was only
    appended to, drops every instruction and entry added since: [t]
    then equals [base] again.  [false] when an added entry re-bound
    one of [base]'s, which leaves [t] unusable. *)

val here : t -> int
(** Address of the next instruction to be emitted. *)

val emit : t -> Instr.t -> int
(** Append an instruction; returns its address. *)

val patch : t -> int -> Instr.t -> unit
(** Replace the instruction at an address (label backpatching). *)

val fetch : t -> int -> Instr.t
val length : t -> int

val set_entry : t -> int -> arity:int -> int -> unit
(** Bind a predicate (functor id, of [arity]) to its entry address. *)

val entry : t -> int -> int option

val regs : t -> int
(** The highest register index an instruction names or an entry's
    arity fills: a run of the code (its query seeded in A1..An, the
    query predicate's arity) writes no X/A register above it, nor a
    shallow frame's saved argument.  {!cut_back} restores [base]'s. *)

val iter_entries : t -> (int -> int -> unit) -> unit
(** [iter_entries t f] calls [f fid addr] for every predicate entry,
    in unspecified order. *)

val trace_addr : int -> int
(** Code-region address of an instruction, for trace records. *)

val pp : Symbols.t -> Format.formatter -> t -> unit
(** Disassembly listing in a vertical box of its own: one instruction
    per line, each predicate's block headed by its [name/arity]. *)
