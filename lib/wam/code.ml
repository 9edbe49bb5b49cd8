(* The code area: a growable instruction table with a predicate entry
   map and backpatching support for forward labels.

   Instruction "addresses" are indices into the table; for tracing they
   map to the shared read-only code region at [Layout.code_base]. *)

type t = {
  instrs : Instr.t Vec.t;
  entries : (int, int) Hashtbl.t; (* predicate functor id -> address *)
  blocks : (int * int) Vec.t; (* (start address, functor id), for listing *)
  mutable regs : int;
      (* highest register an instruction names or an entry's arity
         fills: a run of this code writes no register above it *)
}

let create () =
  {
    instrs = Vec.create ~dummy:Instr.Proceed;
    entries = Hashtbl.create 64;
    blocks = Vec.create ~dummy:(0, 0);
    regs = 0;
  }

let copy t =
  {
    instrs = Vec.copy t.instrs;
    entries = Hashtbl.copy t.entries;
    blocks = Vec.copy t.blocks;
    regs = t.regs;
  }

(* The predicates compiled onto [t] since it was copied from [base]
   each added one block, in order; dropping their entries and the code
   restores [base]'s table unless one of them re-bound an older
   entry. *)
let cut_back t ~base =
  for i = Vec.length base.blocks to Vec.length t.blocks - 1 do
    Hashtbl.remove t.entries (snd (Vec.get t.blocks i))
  done;
  Vec.truncate t.blocks (Vec.length base.blocks);
  Vec.truncate t.instrs (Vec.length base.instrs);
  t.regs <- base.regs;
  Hashtbl.length t.entries = Hashtbl.length base.entries

let here t = Vec.length t.instrs

let emit t i =
  let addr = here t in
  Vec.add t.instrs i;
  t.regs <- max t.regs (Instr.max_reg i);
  addr

let patch t addr i =
  Vec.set t.instrs addr i;
  t.regs <- max t.regs (Instr.max_reg i)

let fetch t addr = Vec.get t.instrs addr

let length t = Vec.length t.instrs

let set_entry t fid ~arity addr =
  Hashtbl.replace t.entries fid addr;
  Vec.add t.blocks (addr, fid);
  t.regs <- max t.regs arity

let regs t = t.regs

let entry t fid = Hashtbl.find_opt t.entries fid

let iter_entries t f = Hashtbl.iter f t.entries

let trace_addr addr = Layout.code_base + addr

(* Disassembly listing, for debugging and documentation: one
   instruction per line in its own vertical box, a predicate's block
   after a blank line and its name. *)
let pp symbols fmt t =
  let block_starts = Hashtbl.create 64 in
  Vec.iter (fun (addr, fid) -> Hashtbl.replace block_starts addr fid) t.blocks;
  Format.pp_open_vbox fmt 0;
  Vec.iteri
    (fun addr i ->
      if addr > 0 then Format.pp_print_cut fmt ();
      (match Hashtbl.find_opt block_starts addr with
      | Some fid ->
        Format.fprintf fmt "@,%s:@," (Symbols.spec_string symbols fid)
      | None -> ());
      Format.fprintf fmt "  %4d  %a" addr Instr.pp i)
    t.instrs;
  Format.pp_close_box fmt ()
