(** A small library of standard list/arithmetic predicates written in
    plain Prolog: append/3, member/2, memberchk/2, length/2,
    reverse/2, nth0/3, nth1/3, last/2, select/3, sum_list/2,
    max_list/2, min_list/2, msort/2, between/3, numlist/3, plus/3. *)

val source : string
