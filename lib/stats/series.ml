(* Named (x, y) series with a small ASCII renderer, used to print the
   figures' data in a gnuplot-friendly column format. *)

type t = {
  name : string;
  mutable points : (float * float) list; (* reverse order *)
}

let create name = { name; points = [] }
let add t x y = t.points <- (x, y) :: t.points
let points t = List.rev t.points

let render_columns fmt series =
  match series with
  | [] -> ()
  | first :: _ ->
    let xs = List.map fst (points first) in
    Format.fprintf fmt "@[<v># x";
    List.iter (fun s -> Format.fprintf fmt "\t%s" s.name) series;
    Format.fprintf fmt "@,";
    List.iteri
      (fun i x ->
        Format.fprintf fmt "%g" x;
        List.iter
          (fun s ->
            match List.nth_opt (points s) i with
            | Some (_, y) -> Format.fprintf fmt "\t%.4f" y
            | None -> Format.fprintf fmt "\t-")
          series;
        Format.fprintf fmt "@,")
      xs;
    Format.fprintf fmt "@]"

(* Crude ASCII plot: one row per x value, bars of up to 50 characters
   proportional to y. *)
let render_bars fmt t =
  let width = 50 in
  let pts = points t in
  let ymax = List.fold_left (fun m (_, y) -> max m y) 0.0 pts in
  Format.fprintf fmt "@[<v>%s (max %.3f)@," t.name ymax;
  List.iter
    (fun (x, y) ->
      let n =
        if ymax = 0.0 then 0
        else int_of_float (y /. ymax *. float_of_int width)
      in
      Format.fprintf fmt "%8g | %-*s %.4f@," x width (String.make n '#') y)
    pts;
  Format.fprintf fmt "@]"
