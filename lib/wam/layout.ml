(* Shared address-space layout.

   One flat word-addressed space.  PE [p]'s stack set occupies the 4M-word
   region starting at [p lsl region_bits]; inside a region the storage
   areas sit at fixed offsets.  The code area is a separate read-only
   region above all stack sets (its "addresses" appear only in traces;
   instructions themselves live in the Code table).

     offset (words)        area            size
     0                     Heap            1M
     1M                    Local stack     512K   (environments, parcall frames)
     1.5M                  Control stack   512K   (choice points, markers)
     2M                    Trail           256K
     2M+256K               PDL             64K
     2M+320K               Goal stack      64K
     2M+384K               Message buffer  64K

   Every boundary is a multiple of 64K words: [Exec] classifies an
   address by a table of the region's 64K blocks, filled from
   [area_of_addr] and checked against it when the program starts. *)

let region_bits = 22
let region_words = 1 lsl region_bits

let heap_off = 0
let heap_size = 1 lsl 20
let local_off = 1 lsl 20
let local_size = 1 lsl 19
let control_off = local_off + local_size
let control_size = 1 lsl 19
let trail_off = 1 lsl 21
let trail_size = 1 lsl 18
let pdl_off = trail_off + trail_size
let pdl_size = 1 lsl 16
let goal_off = pdl_off + pdl_size
let goal_size = 1 lsl 16
let msg_off = goal_off + goal_size
let msg_size = 1 lsl 16

let code_base = 1 lsl 30

let region_of pe = pe lsl region_bits

let heap_base pe = region_of pe + heap_off
let local_base pe = region_of pe + local_off
let control_base pe = region_of pe + control_off
let trail_base pe = region_of pe + trail_off
let pdl_base pe = region_of pe + pdl_off
let goal_base pe = region_of pe + goal_off
let msg_base pe = region_of pe + msg_off

let heap_limit pe = heap_base pe + heap_size
let local_limit pe = local_base pe + local_size
let control_limit pe = control_base pe + control_size
let trail_limit pe = trail_base pe + trail_size
let pdl_limit pe = pdl_base pe + pdl_size
let goal_limit pe = goal_base pe + goal_size
let msg_limit pe = msg_base pe + msg_size

(* Owning PE of an address, or -1 for the shared code region. *)
let pe_of_addr addr = if addr >= code_base then -1 else addr lsr region_bits

let offset_of_addr addr = addr land (region_words - 1)

(* Default area classification by address, used for generic term-cell
   accesses (deref, unify, arithmetic).  Local-stack term cells are
   permanent variables; control-stack cells are only touched through
   explicitly tagged accesses, so the defaults there never mislead. *)
let area_of_addr addr : Trace.Area.t =
  if addr >= code_base then Trace.Area.Code
  else begin
    let off = offset_of_addr addr in
    if off < local_off then Trace.Area.Heap
    else if off < control_off then Trace.Area.Env_pvar
    else if off < trail_off then Trace.Area.Choice_point
    else if off < pdl_off then Trace.Area.Trail
    else if off < goal_off then Trace.Area.Pdl
    else if off < msg_off then Trace.Area.Goal_frame
    else Trace.Area.Message
  end

let is_local_stack_addr addr =
  addr < code_base
  &&
  let off = offset_of_addr addr in
  off >= local_off && off < control_off
