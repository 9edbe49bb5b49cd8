(** The RAP-WAM instruction set: the standard WAM repertoire plus the
    parallel extensions.  Labels are absolute code addresses; [-1] as a
    switch target means "fail".

    A constant is its tagged cell ({!Cell.con} of an atom id or
    {!Cell.num} of an integer), as an operand of the constant
    instructions and as a [Switch_on_constant] key; [[]] is the atom
    {!Symbols.nil}.  Cells are compared as whole words, so an atom never
    matches the integer with the same payload. *)

type reg =
  | X of int  (** temporary/argument register (no memory traffic) *)
  | Y of int  (** permanent variable slot in the environment *)

(** Attributes: a statically certified fact about one instruction
    site, set by the compiler from the lib/detan and lib/bindan plans.
    The default value ([Deep], [Plain], [false]) is the baseline WAM
    instruction; each other value skips work the certificate proves
    unnecessary.  A certified specialization is a new attribute value,
    never a new constructor. *)

type chain =
  | Deep  (** a choice point in the control stack *)
  | Shallow
      (** a determinacy-certified chain: the worker-private shallow
          frame (registers + an undo log) stands in for the choice
          point, so no choice-point words are written and nothing is
          trailed until the clause commits *)

type cert =
  | Plain
  | Rigid
      (** the argument is certified bound at deref depth 0: the
          register already holds the final non-reference cell, so the
          deref loop is skipped; a Ref contradicts the certificate and
          fails *)
  | Uncond
      (** for [Get_structure]/[Get_list]: the argument is certified free
          and unconditional (the caller created the cell after every
          enclosing choice point and parcall trail floor), so the
          self-reference is overwritten directly — no deref read, no
          trail test or write.  For [Get_value]: full unification, with
          every binding certified unconditional, so the trail test and
          write are elided for the instruction's duration *)

type t =
  (* put group: load argument registers before a call *)
  | Put_variable of reg * int * bool
      (** create an unbound variable (heap for X, environment for Y)
          and load it into A_i.  With the [uncond] flag the argument is
          an output every consumer writes through a certified
          [Uncond] get before reading it, so the self-reference
          initialization is dead: the cell is allocated with an
          untraced store *)
  | Put_value of reg * int
  | Put_unsafe_value of int * int
      (** like [Put_value Y] but globalizes a still-unbound environment
          variable before the environment is deallocated (LCO) *)
  | Put_constant of int * int  (** constant cell, A_i *)
  | Put_structure of int * int  (** functor id, A_i; enters write mode *)
  | Put_list of int
  (* get group: head argument unification *)
  | Get_variable of reg * int
  | Get_value of reg * int * cert
  | Get_constant of int * int * bool
      (** constant cell, A_i, [uncond]: with the flag the argument is
          certified free and unconditional, as for [Uncond] *)
  | Get_structure of int * int * cert
      (** read mode on a matching structure, write mode on a variable *)
  | Get_list of int * cert
  (* unify group: structure arguments, read or write mode *)
  | Unify_variable of reg
  | Unify_value of reg
  | Unify_local_value of reg
      (** like [Unify_value] but globalizes unbound stack variables in
          write mode *)
  | Unify_constant of int  (** constant cell *)
  | Unify_void of int  (** skip (read) or create (write) n cells *)
  (* control *)
  | Allocate of int  (** push an environment with n permanent slots *)
  | Deallocate
  | Call of int  (** predicate functor id; saves CP, sets B0 *)
  | Execute of int  (** last-call transfer *)
  | Proceed
  | Jump of int
  | Halt_ok  (** the query succeeded *)
  (* choice *)
  | Try of int * chain
      (** push a choice point (or snapshot the shallow frame), continue
          at the label *)
  | Retry of int * chain  (** update the alternative, continue at the label *)
  | Trust of int * chain
      (** pop the choice point (or deactivate the shallow frame) and
          run the last alternative *)
  (* indexing *)
  | Switch_on_term of {
      var_l : int;
      con_l : int;
      int_l : int;
      lis_l : int;
      str_l : int;
    }  (** dispatch on the dereferenced first argument's tag *)
  | Switch_on_constant of (int * int) array * int
      (** (constant cell, label) table plus a default (variable-headed
          clauses); [Switch_on_term]'s constant and integer labels each
          lead to one *)
  | Switch_on_structure of (int * int) array * int
  (* cut *)
  | Neck_cut  (** discard choice points newer than B0 *)
  | Get_level of int  (** Y_n := B0 *)
  | Cut_to of int  (** discard down to the level saved in Y_n *)
  (* escapes *)
  | Builtin of Builtin.t * int * bool
      (** builtin, arity (args in A1..An), [uncond]: with the flag the
          builtin's bindings are certified unconditional, so the
          worker's bind skips trailing for the builtin's duration *)
  (* RAP-WAM parallel extensions *)
  | Check_ground of reg * int
      (** jump to the sequential version unless the register holds a
          ground term *)
  | Check_indep of reg * reg * int
  | Check_size of reg * int * int
      (** (register, minimum size, else-label): jump to the sequential
          version unless the term's size (structure cells walked, bounded
          by the constant) reaches the minimum — the granularity-control
          guard emitted by [bin/annotate --granularity] *)
  | Alloc_parcall of int * int
      (** (number of PUSHED goals, join address): push a parcall frame
          and make it the backtrack barrier; the CGE's first goal runs
          inline afterwards *)
  | Push_goal of int * int * int
      (** (slot, predicate functor id, arity): copy A1..An into a goal
          frame on the own goal stack *)
  | Par_join
      (** run own pending goals / wait for remote check-ins; continue
          when the parcall's counter reaches zero; entry point of the
          failure protocol *)
  | Goal_done  (** return point of popped and stolen goals *)

val opcode : t -> int
(** Position of the instruction's mnemonic in the opcode table;
    attributes do not change it. *)

val opcode_count : int
val opcode_name : int -> string
(** @raise Invalid_argument outside [0, opcode_count). *)

val max_reg : t -> int
(** The highest X/A register index the instruction names, an escape's
    or a pushed goal's arity included; 0 when it names none. *)

val plain : t -> t
(** The same instruction with every attribute reset to its default. *)

val pp : Format.formatter -> t -> unit
(** Mnemonic and operands, then a non-default attribute as a suffix
    ([ [shallow]], [ [rigid]], [ [uncond]]).  A constant prints as its
    atom id, or as [#n] when it is the integer [n]. *)
