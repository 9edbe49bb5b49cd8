(** Tagged data cells, encoded in a single OCaml [int] (low 3 bits =
    tag, payload = [word asr 3]).  [Exec] relies on this layout: it
    tests tags inline instead of calling here.

    An unbound variable is a [ref_] cell whose payload is its own
    address. *)

(** {1 Constructors} *)

val ref_ : int -> int
(** A variable; unbound iff [mem.(a) = ref_ a]. *)

val str : int -> int
(** A pointer to a [fun_] cell heading a structure. *)

val lis : int -> int
(** A pointer to a cons pair at [a], [a+1]. *)

val con : int -> int
(** An atom; the payload is the symbol id. *)

val num : int -> int
(** An integer. *)

val fun_ : int -> int
(** The functor word heading a structure. *)

val raw : int -> int
(** A machine control word. *)

(** {1 Inspection} *)

val payload : int -> int
val is_ref : int -> bool

val fits : int -> bool
(** Does {!num} keep this integer: is it in \[-2{^59}, 2{^59}-1\]?
    A [Num] payload has 60 bits; outside them it would wrap. *)
