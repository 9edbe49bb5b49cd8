(* Minimal growable array (OCaml 5.1 predates Stdlib.Dynarray). *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy = { data = Array.make 16 dummy; len = 0; dummy }

let length t = t.len

let copy t = { t with data = Array.copy t.data }

let ensure t cap =
  if cap > Array.length t.data then begin
    let bigger = Array.make (max cap (2 * Array.length t.data)) t.dummy in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end

let add t x =
  ensure t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

(* Drop every element from index [n] on; the freed slots go back to
   [dummy] so they keep nothing alive. *)
let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Vec.truncate";
  Array.fill t.data n (t.len - n) t.dummy;
  t.len <- n

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set";
  t.data.(i) <- x

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done
