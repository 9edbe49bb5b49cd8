(** The one JSON value type and printer behind every artifact the
    libraries, CLIs and bench harness write: the [BENCH_*] files and
    each [--json] report.

    There is no reader here: nothing in the libraries or CLIs reads
    JSON back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in the order given *)

val to_string : t -> string
(** One fixed format, ending in a newline.

    Layout: the outermost container prints one member per line with a
    two-space indent, and an array that is a member of the outermost
    object prints one element per line with a four-space indent.
    Everything deeper prints on one line with [", "] and [": "]
    separators, and empty containers print as [[]] or [{}].  So one
    report or table row sits on one line and each top-level
    ["key": value] gate on its own line, which is what line-oriented
    greps over the artifacts rely on.

    Floats: the shorter of [%.15g] and [%.17g] that reads back to the
    same value, with [.0] appended when neither a [.] nor an exponent
    shows (so [0.] prints as [0.0], not as an integer).  Non-finite
    floats print as [null].

    Strings: the double quote and the backslash are escaped; bytes
    below 0x20 print as the escapes n, t, r or u00XX; valid UTF-8
    passes through unchanged; each byte of an invalid UTF-8 sequence
    prints as a u00XX escape (its Latin-1 reading), so the output is
    always valid UTF-8. *)
