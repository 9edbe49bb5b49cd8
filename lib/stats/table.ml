(* Plain-text table rendering for the benchmark harness output. *)

type align = Left | Right

type t = {
  title : string;
  headers : string list;
  aligns : align list;
  mutable rows : string list list; (* reverse order *)
}

let create ~title ~headers ?aligns () =
  let aligns =
    match aligns with
    | Some a ->
      if List.length a <> List.length headers then
        invalid_arg "Table.create: aligns/headers mismatch";
      a
    | None -> List.map (fun _ -> Right) headers
  in
  { title; headers; aligns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: wrong arity";
  t.rows <- cells :: t.rows

let cell_int n = string_of_int n
let cell_float ?(decimals = 3) x = Printf.sprintf "%.*f" decimals x

let render fmt t =
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      t.headers
  in
  let pad align width s =
    let n = width - String.length s in
    if n <= 0 then s
    else begin
      match align with
      | Left -> s ^ String.make n ' '
      | Right -> String.make n ' ' ^ s
    end
  in
  let hline =
    String.concat "-+-" (List.map (fun w -> String.make w '-') widths)
  in
  Format.fprintf fmt "@[<v>%s@,%s@," t.title
    (String.concat " | "
       (List.map2
          (fun (w, a) h -> pad a w h)
          (List.combine widths t.aligns)
          t.headers));
  Format.fprintf fmt "%s@," hline;
  List.iter
    (fun row ->
      Format.fprintf fmt "%s@,"
        (String.concat " | "
           (List.map2
              (fun (w, a) c -> pad a w c)
              (List.combine widths t.aligns)
              row)))
    rows;
  Format.fprintf fmt "@]"

let print t = Format.printf "%a@." render t
