(** The "large benchmark" population for Table 3.

    Substitutes for Tick's proprietary trace set: a population of
    classic sequential Prolog programs with varied referencing
    behaviour, against which the small benchmarks' locality is
    z-scored. *)

val primes : string

val population : unit -> Programs.benchmark list
(** The five programs with inputs sized for six-figure reference
    counts. *)
