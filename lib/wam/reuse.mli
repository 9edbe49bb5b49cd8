(** A bounded set of idle objects for later reuse.  Any domain, and
    any systhread of a domain, may take from one set or give to it. *)

type 'a t

val create : limit:int -> 'a t
(** An empty set that holds at most [limit] idle objects. *)

val take : 'a t -> fits:('a -> bool) -> 'a option
(** Remove and return the most recently given object that [fits]. *)

val give : 'a t -> 'a -> unit
(** Keep an idle object, or drop it when the set is full.  The caller
    must not use it afterwards. *)
