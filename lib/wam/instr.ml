(* The RAP-WAM instruction set: the standard WAM repertoire (put/get/
   unify groups, control, choice, indexing, cut) plus the parallel
   extensions (CGE checks, parcall allocation, goal pushing, join).

   Statically certified facts (lib/detan, lib/bindan) are attributes
   of the base instructions, not extra opcodes: a [chain] on
   try/retry/trust, a [cert] on the compound/value gets, and an
   [uncond] flag on get_constant, put_variable and builtin.

   A constant operand (and a switch_on_constant key) is the constant's
   tagged cell, [Cell.con] of an atom id or [Cell.num] of an integer,
   so one family of constant instructions serves atoms, integers and
   [[]] (atom [Symbols.nil]).

   Labels are absolute code addresses (patched by the compiler); [-1]
   as a switch target means "fail". *)

type reg = X of int | Y of int

type chain = Deep | Shallow
type cert = Plain | Rigid | Uncond

type t =
  (* put group: load argument registers before a call *)
  | Put_variable of reg * int * bool (* uncond: untraced init *)
  | Put_value of reg * int
  | Put_unsafe_value of int * int (* Y index, A *)
  | Put_constant of int * int (* constant cell, A *)
  | Put_structure of int * int (* functor id, A *)
  | Put_list of int
  (* get group: head argument unification *)
  | Get_variable of reg * int
  | Get_value of reg * int * cert
  | Get_constant of int * int * bool (* constant cell, A, uncond *)
  | Get_structure of int * int * cert
  | Get_list of int * cert
  (* unify group: structure arguments, in read or write mode *)
  | Unify_variable of reg
  | Unify_value of reg
  | Unify_local_value of reg
  | Unify_constant of int (* constant cell *)
  | Unify_void of int
  (* control *)
  | Allocate of int (* n permanent variables *)
  | Deallocate
  | Call of int (* predicate functor id *)
  | Execute of int
  | Proceed
  | Jump of int
  | Halt_ok (* query succeeded *)
  (* choice *)
  | Try of int * chain
  | Retry of int * chain
  | Trust of int * chain
  (* indexing *)
  | Switch_on_term of {
      var_l : int;
      con_l : int;
      int_l : int;
      lis_l : int;
      str_l : int;
    }
  | Switch_on_constant of (int * int) array * int (* cell keys, default *)
  | Switch_on_structure of (int * int) array * int (* functor id keys *)
  (* cut *)
  | Neck_cut
  | Get_level of int (* Yn := B0 *)
  | Cut_to of int (* cut to choice point saved in Yn *)
  (* escapes *)
  | Builtin of Builtin.t * int * bool (* builtin, arity, uncond *)
  (* RAP-WAM parallel extensions *)
  | Check_ground of reg * int (* else-label: run sequential version *)
  | Check_indep of reg * reg * int
  | Check_size of reg * int * int (* minimum term size, else-label *)
  | Alloc_parcall of int * int (* pushed-goal count, join address *)
  | Push_goal of int * int * int (* slot, predicate functor id, arity *)
  | Par_join
  | Goal_done (* return point of a parallel goal *)

(* The opcode table.  Each [def] appends one mnemonic and returns its
   position, so the numbering and the names come from this one ordered
   list. *)
let mnemonics = ref []

let def name =
  mnemonics := name :: !mnemonics;
  List.length !mnemonics - 1

let op_put_variable = def "put_variable"
let op_put_value = def "put_value"
let op_put_unsafe_value = def "put_unsafe_value"
let op_put_constant = def "put_constant"
let op_put_structure = def "put_structure"
let op_put_list = def "put_list"
let op_get_variable = def "get_variable"
let op_get_value = def "get_value"
let op_get_constant = def "get_constant"
let op_get_structure = def "get_structure"
let op_get_list = def "get_list"
let op_unify_variable = def "unify_variable"
let op_unify_value = def "unify_value"
let op_unify_local_value = def "unify_local_value"
let op_unify_constant = def "unify_constant"
let op_unify_void = def "unify_void"
let op_allocate = def "allocate"
let op_deallocate = def "deallocate"
let op_call = def "call"
let op_execute = def "execute"
let op_proceed = def "proceed"
let op_jump = def "jump"
let op_halt = def "halt"
let op_try = def "try"
let op_retry = def "retry"
let op_trust = def "trust"
let op_switch_on_term = def "switch_on_term"
let op_switch_on_constant = def "switch_on_constant"
let op_switch_on_structure = def "switch_on_structure"
let op_neck_cut = def "neck_cut"
let op_get_level = def "get_level"
let op_cut_to = def "cut_to"
let op_builtin = def "builtin"
let op_check_ground = def "check_ground"
let op_check_indep = def "check_indep"
let op_alloc_parcall = def "alloc_parcall"
let op_push_goal = def "push_goal"
let op_par_join = def "par_join"
let op_goal_done = def "goal_done"
let op_check_size = def "check_size"
let opcode_names = Array.of_list (List.rev !mnemonics)
let opcode_count = Array.length opcode_names
let opcode_name n = opcode_names.(n)

let opcode = function
  | Put_variable _ -> op_put_variable
  | Put_value _ -> op_put_value
  | Put_unsafe_value _ -> op_put_unsafe_value
  | Put_constant _ -> op_put_constant
  | Put_structure _ -> op_put_structure
  | Put_list _ -> op_put_list
  | Get_variable _ -> op_get_variable
  | Get_value _ -> op_get_value
  | Get_constant _ -> op_get_constant
  | Get_structure _ -> op_get_structure
  | Get_list _ -> op_get_list
  | Unify_variable _ -> op_unify_variable
  | Unify_value _ -> op_unify_value
  | Unify_local_value _ -> op_unify_local_value
  | Unify_constant _ -> op_unify_constant
  | Unify_void _ -> op_unify_void
  | Allocate _ -> op_allocate
  | Deallocate -> op_deallocate
  | Call _ -> op_call
  | Execute _ -> op_execute
  | Proceed -> op_proceed
  | Jump _ -> op_jump
  | Halt_ok -> op_halt
  | Try _ -> op_try
  | Retry _ -> op_retry
  | Trust _ -> op_trust
  | Switch_on_term _ -> op_switch_on_term
  | Switch_on_constant _ -> op_switch_on_constant
  | Switch_on_structure _ -> op_switch_on_structure
  | Neck_cut -> op_neck_cut
  | Get_level _ -> op_get_level
  | Cut_to _ -> op_cut_to
  | Builtin _ -> op_builtin
  | Check_ground _ -> op_check_ground
  | Check_indep _ -> op_check_indep
  | Alloc_parcall _ -> op_alloc_parcall
  | Push_goal _ -> op_push_goal
  | Par_join -> op_par_join
  | Goal_done -> op_goal_done
  | Check_size _ -> op_check_size

let plain = function
  | Put_variable (r, a, _) -> Put_variable (r, a, false)
  | Get_value (r, a, _) -> Get_value (r, a, Plain)
  | Get_constant (c, a, _) -> Get_constant (c, a, false)
  | Get_structure (f, a, _) -> Get_structure (f, a, Plain)
  | Get_list (a, _) -> Get_list (a, Plain)
  | Try (l, _) -> Try (l, Deep)
  | Retry (l, _) -> Retry (l, Deep)
  | Trust (l, _) -> Trust (l, Deep)
  | Builtin (b, n, _) -> Builtin (b, n, false)
  | i -> i

let x_index = function X n -> n | Y _ -> 0

let max_reg = function
  | Put_variable (r, a, _) | Put_value (r, a) | Get_variable (r, a)
  | Get_value (r, a, _) ->
    max (x_index r) a
  | Put_unsafe_value (_, a)
  | Put_constant (_, a)
  | Put_structure (_, a)
  | Put_list a
  | Get_constant (_, a, _)
  | Get_structure (_, a, _)
  | Get_list (a, _)
  | Builtin (_, a, _)
  | Push_goal (_, _, a) ->
    a
  | Unify_variable r | Unify_value r | Unify_local_value r
  | Check_ground (r, _)
  | Check_size (r, _, _) ->
    x_index r
  | Check_indep (r1, r2, _) -> max (x_index r1) (x_index r2)
  | Switch_on_term _ -> 1
  | Unify_constant _ | Unify_void _ | Allocate _ | Deallocate | Call _
  | Execute _ | Proceed | Jump _ | Halt_ok | Try _ | Retry _ | Trust _
  | Switch_on_constant _ | Switch_on_structure _ | Neck_cut | Get_level _
  | Cut_to _ | Alloc_parcall _ | Par_join | Goal_done ->
    0

let pp_reg fmt = function
  | X n -> Format.fprintf fmt "X%d" n
  | Y n -> Format.fprintf fmt "Y%d" n

(* A non-default attribute, printed after the operands. *)
let attribute = function
  | Try (_, Shallow) | Retry (_, Shallow) | Trust (_, Shallow) -> " [shallow]"
  | Get_value (_, _, Rigid) | Get_structure (_, _, Rigid) | Get_list (_, Rigid)
    ->
    " [rigid]"
  | Get_value (_, _, Uncond)
  | Get_structure (_, _, Uncond)
  | Get_list (_, Uncond)
  | Get_constant (_, _, true)
  | Put_variable (_, _, true)
  | Builtin (_, _, true) ->
    " [uncond]"
  | _ -> ""

(* A constant cell: an atom as its id, an integer as [#n]. *)
let constant c =
  let n = Cell.payload c in
  if c = Cell.num n then Printf.sprintf "#%d" n else string_of_int n

let pp_switch fmt name key tbl d =
  Format.fprintf fmt "%s [%s] else:%d" name
    (String.concat "; "
       (Array.to_list (Array.map (fun (k, l) -> key k ^ "->" ^ string_of_int l) tbl)))
    d

let pp fmt i =
  let name = opcode_name (opcode i) in
  (match i with
  | Put_variable (r, a, _) | Put_value (r, a) | Get_variable (r, a)
  | Get_value (r, a, _) ->
    Format.fprintf fmt "%s %a, A%d" name pp_reg r a
  | Put_unsafe_value (y, a) -> Format.fprintf fmt "%s Y%d, A%d" name y a
  | Put_constant (c, a) | Get_constant (c, a, _) ->
    Format.fprintf fmt "%s %s, A%d" name (constant c) a
  | Put_structure (f, a) | Get_structure (f, a, _) ->
    Format.fprintf fmt "%s %d, A%d" name f a
  | Put_list a | Get_list (a, _) -> Format.fprintf fmt "%s A%d" name a
  | Unify_variable r | Unify_value r | Unify_local_value r ->
    Format.fprintf fmt "%s %a" name pp_reg r
  | Unify_constant c -> Format.fprintf fmt "%s %s" name (constant c)
  | Deallocate | Proceed | Halt_ok | Neck_cut | Par_join | Goal_done ->
    Format.pp_print_string fmt name
  | Unify_void n | Allocate n | Call n | Execute n | Jump n | Try (n, _)
  | Retry (n, _) | Trust (n, _) | Get_level n | Cut_to n ->
    Format.fprintf fmt "%s %d" name n
  | Alloc_parcall (k, join) ->
    Format.fprintf fmt "%s %d, join:%d" name k join
  | Switch_on_term { var_l; con_l; int_l; lis_l; str_l } ->
    Format.fprintf fmt "%s v:%d c:%d i:%d l:%d s:%d" name var_l con_l int_l
      lis_l str_l
  | Switch_on_constant (tbl, d) -> pp_switch fmt name constant tbl d
  | Switch_on_structure (tbl, d) -> pp_switch fmt name string_of_int tbl d
  | Builtin (b, _, _) -> Format.fprintf fmt "%s %s" name (Builtin.name b)
  | Check_ground (r, l) -> Format.fprintf fmt "%s %a, else:%d" name pp_reg r l
  | Check_indep (r1, r2, l) ->
    Format.fprintf fmt "%s %a, %a, else:%d" name pp_reg r1 pp_reg r2 l
  | Check_size (r, k, l) ->
    Format.fprintf fmt "%s %a, %d, else:%d" name pp_reg r k l
  | Push_goal (slot, f, n) ->
    Format.fprintf fmt "%s slot:%d pred:%d/%d" name slot f n);
  Format.pp_print_string fmt (attribute i)
