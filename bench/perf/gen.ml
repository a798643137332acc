(** Seeded generator of the C-subset kernels the workloads feed to
    [defacto -f].

    A workload asks for a list of {!slot}s, and a slot fixes what sets
    how much work exploring a kernel takes: the nest depth, each loop's
    trip count (divisor-rich 32/48/60/64 or prime 17/29/31; a short
    innermost reduction at depth 3), since the divisor lattice grows
    with the number of divisors, and the number of taps. The seed draws
    the rest: which offsets of the 3x3 window the taps read (reuse,
    hence scalar replacement), coefficients and signs, the element
    width and the names. Every seed thus explores the same mix of shapes
    at a similar cost, while no two seeds share a kernel. *)

type slot = { trips : int list;  (** outermost first *) taps : int  (** 2 to 9 *) }

type elem = Char | Short | Int

type kernel = {
  name : string;
  trips : int list;
  taps : int;
  elem : elem;
  source : string;
}

let elem_name = function Char -> "unsigned char" | Short -> "short" | Int -> "int"

let describe k =
  Printf.sprintf "%s: depth %d, trips %s, %d taps, %s elements" k.name
    (List.length k.trips)
    (String.concat "x" (List.map string_of_int k.trips))
    k.taps (elem_name k.elem)

let offset v d = if d = 0 then v else Printf.sprintf "%s+%d" v d

(** The [attempt]-th candidate for slot [index] under [seed]. Each
    (seed, slot, attempt) has its own random stream, so redrawing a
    refused candidate never changes another slot's kernel. *)
let draw ~seed ~index ~attempt ~name (s : slot) : kernel =
  let st = Random.State.make [| seed; index; attempt |] in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let trips = s.trips and taps = s.taps in
  let window =
    List.init 9 (fun w -> (Random.State.bits st, (w / 3, w mod 3)))
    |> List.sort compare |> List.map snd
    |> List.filteri (fun i _ -> i < taps)
    |> List.sort compare
  in
  let elem = pick [| Char; Short; Int |] in
  let a, b, c = pick [| ("i", "j", "k"); ("y", "x", "t"); ("r", "c", "n") |] in
  let src, dst, w = pick [| ("src", "dst", "w"); ("img", "out", "h"); ("A", "B", "C") |] in
  let col = match trips with [ _; _; _ ] -> b ^ "+" ^ c | _ -> b in
  let terms =
    List.mapi
      (fun i (dy, dx) ->
        let coef = 1 + Random.State.int st 7 in
        let sign = if i = 0 then "" else if Random.State.bool st then " + " else " - " in
        Printf.sprintf "%s%d*%s[%s][%s]" sign coef src (offset a dy) (offset col dx))
      window
    |> String.concat ""
  in
  let loop v t = Printf.sprintf "for (%s = 0; %s < %d; %s++)\n" v v t v in
  let source =
    match trips with
    | [ t1; t2 ] ->
        Printf.sprintf "%s %s[%d][%d];\nint %s[%d][%d];\n%s  %s    %s[%s][%s] = %s;\n"
          (elem_name elem) src (t1 + 2) (t2 + 2) dst t1 t2 (loop a t1) (loop b t2)
          dst a b terms
    | [ t1; t2; t3 ] ->
        Printf.sprintf
          "%s %s[%d][%d];\nshort %s[%d];\nint %s[%d][%d];\n%s  %s    %s      \
           %s[%s][%s] = %s[%s][%s] + (%s) * %s[%s];\n"
          (elem_name elem) src (t1 + 2) (t2 + t3 + 1) w t3 dst t1 t2 (loop a t1)
          (loop b t2) (loop c t3) dst a b dst a b terms w c
    | _ -> invalid_arg "Gen.draw: slots have two or three loops"
  in
  { name; trips; taps; elem; source }
