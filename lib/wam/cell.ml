(* Tagged data cells, encoded in a single OCaml int.

   The simulated memory is word-addressed and every word is a tagged
   cell, as in the WAM.  Encoding: low 3 bits = tag, payload = word
   asr 3 (arithmetic shift so integers and raw control words keep their
   sign).

     Ref a   unbound/bound variable; unbound iff mem[a] = Ref a
     Str a   pointer to a Fun cell at address a
     Lis a   pointer to a cons pair at addresses a, a+1
     Con c   atom, payload is the symbol id
     Num n   integer
     Fun f   functor word (interned name/arity id); heads Str blocks
     Raw n   machine control word (saved registers, counters, sizes)   *)

let tag_ref = 0
let tag_str = 1
let tag_lis = 2
let tag_con = 3
let tag_num = 4
let tag_fun = 5
let tag_raw = 6

let make tag payload = (payload lsl 3) lor tag

let ref_ a = make tag_ref a
let str a = make tag_str a
let lis a = make tag_lis a
let con c = make tag_con c
let num n = make tag_num n
let fun_ f = make tag_fun f
let raw n = make tag_raw n

let tag w = w land 7
let payload w = w asr 3

let is_ref w = tag w = tag_ref
let fits n = (n lsl 3) asr 3 = n
