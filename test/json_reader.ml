(* A strict RFC 8259 reader into Obs.Json.t: the oracle the printer
   tests parse with (nothing outside the tests reads JSON).

   It rejects what a strict reader such as Python's json.load over a
   UTF-8 file rejects: invalid UTF-8, raw control bytes in strings,
   unknown escapes, lone surrogates, NaN/Infinity, leading zeros and
   trailing garbage.  Numbers without a fraction or exponent read as
   [Int], the rest as [Float]. *)

open Obs.Json

exception Error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | (' ' | '\t' | '\n' | '\r') when !pos < n ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () <> c || !pos >= n then fail (Printf.sprintf "expected %C" c);
    incr pos
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail "bad literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "short \\u escape";
    let v =
      try int_of_string ("0x" ^ String.sub s !pos 4)
      with Failure _ -> fail "bad \\u escape"
    in
    pos := !pos + 4;
    v
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        let e = peek () in
        incr pos;
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          let u = hex4 () in
          let u =
            if u >= 0xD800 && u <= 0xDBFF then begin
              if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u')
              then fail "lone high surrogate";
              pos := !pos + 2;
              let lo = hex4 () in
              if lo < 0xDC00 || lo > 0xDFFF then fail "bad low surrogate";
              0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else if u >= 0xDC00 && u <= 0xDFFF then fail "lone low surrogate"
            else u
          in
          Buffer.add_utf_8_uchar b (Uchar.of_int u)
        | _ -> fail "unknown escape");
        go ()
      | c when c < ' ' -> fail "raw control byte in string"
      | _ ->
        let d = String.get_utf_8_uchar s !pos in
        if not (Uchar.utf_decode_is_valid d) then fail "invalid UTF-8";
        let k = Uchar.utf_decode_length d in
        Buffer.add_string b (String.sub s !pos k);
        pos := !pos + k;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        incr pos
      done;
      if !pos = d0 then fail "expected a digit"
    in
    if peek () = '-' then incr pos;
    if peek () = '0' then begin
      incr pos;
      if !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' then
        fail "leading zero"
    end
    else digits ();
    let integral = ref true in
    if peek () = '.' && !pos < n then begin
      integral := false;
      incr pos;
      digits ()
    end;
    if (peek () = 'e' || peek () = 'E') && !pos < n then begin
      integral := false;
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      digits ()
    end;
    let text = String.sub s start (!pos - start) in
    if !integral then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail "integer out of range"
    else Float (float_of_string text)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | _ when !pos >= n -> fail "unexpected end"
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (string_ ())
    | '[' ->
      incr pos;
      List (items ']' value)
    | '{' ->
      incr pos;
      Obj
        (items '}' (fun () ->
             skip_ws ();
             let k = string_ () in
             skip_ws ();
             expect ':';
             (k, value ())))
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected byte"
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    skip_ws ();
    if peek () = close && !pos < n then begin
      incr pos;
      []
    end
    else
      let rec more acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | ',' when !pos < n ->
          incr pos;
          more acc
        | c when c = close && !pos < n ->
          incr pos;
          List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or %C" close)
      in
      more []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes";
  v

let of_file path = of_string In_channel.(with_open_bin path input_all)

let member k = function
  | Obj kvs -> (
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> raise (Error ("no member " ^ k)))
  | _ -> raise (Error ("not an object looking up " ^ k))
