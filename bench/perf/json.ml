(** Just enough JSON for the benchmark's own files: [BENCHMARK.json],
    per-run results files and the committed baseline. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec ws () =
    if !pos < n && String.contains " \n\r\t" s.[!pos] then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' when !pos + 4 <= n ->
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        seq '}' (fun () -> let k = str () in expect ':'; (k, value ())) (fun l -> Obj l)
    | '[' -> incr pos; seq ']' value (fun l -> Arr l)
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad value")
  and seq : 'a. char -> (unit -> 'a) -> ('a list -> t) -> t =
   fun close item make ->
    ws ();
    if peek () = close then begin
      incr pos;
      make []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        match peek () with
        | ',' -> incr pos; go acc
        | c when c = close -> incr pos; make (List.rev acc)
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing data";
  v

let of_file path = parse (In_channel.with_open_bin path In_channel.input_all)

(* Shortest of %.15g/%.17g that reads back exactly: measured values are
   written with all their digits. *)
let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** Compact when [indent] is false; otherwise one object field per line,
    with arrays of scalars kept on one line. *)
let rec to_string ?(indent = false) ?(depth = 0) v =
  let scalar = function Arr _ | Obj _ -> false | _ -> true in
  let sep d = if indent then "\n" ^ String.make (2 * d) ' ' else "" in
  match v with
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Str s -> quote s
  | Arr l when (not indent) || List.for_all scalar l ->
      "[" ^ String.concat ", " (List.map (to_string ~indent ~depth) l) ^ "]"
  | Arr l ->
      "["
      ^ String.concat ","
          (List.map (fun x -> sep (depth + 1) ^ to_string ~indent ~depth:(depth + 1) x) l)
      ^ sep depth ^ "]"
  | Obj [] -> "{}"
  | Obj l ->
      "{"
      ^ String.concat (if indent then "," else ", ")
          (List.map
             (fun (k, x) ->
               sep (depth + 1) ^ quote k ^ ": " ^ to_string ~indent ~depth:(depth + 1) x)
             l)
      ^ sep depth ^ "}"

let member k = function Obj l -> List.assoc_opt k l | _ -> None
let num = function Some (Num f) -> f | _ -> nan
let str = function Some (Str s) -> s | _ -> ""
let list = function Some (Arr l) -> l | _ -> []
let fields = function Some (Obj l) -> l | _ -> []
