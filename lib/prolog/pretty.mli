(** Term printing with operator notation and list syntax.

    The output re-parses ({!Parser.term_of_string}) to the same term:
    a quoted atom doubles its quotes and escapes backslash and newline
    (so a printed term is one line); [','], ['|'] and a bare ['.']
    before layout are quoted; a functor that would not lex before
    ['('] is quoted; [{}/1] prints as [{X}]; a prefix-operator atom
    before an infix operator is bracketed; and [-]/[+] applied to a
    term printed with a leading digit prints canonically, [-(1)]. *)

val pp : Format.formatter -> Term.t -> unit
val to_string : Term.t -> string
