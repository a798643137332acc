(** Bit-identity oracle for design-point evaluation.

    One line per (kernel, memory model, configuration): every integer
    field of the point's {!Hls.Estimate.t}, the MD5 digest of its
    operator usage and the MD5 digest of the printed transformed kernel.
    The configurations are those [Space.sweep ~max_product:64] evaluates
    on one context per (kernel, memory model), over the 14 built-in and
    gallery kernels and both memory models, followed by every survivor
    of [Space.sweep ~joint ~max_product:16] on a fresh pipelined context
    (the exhaustive mode, so the listing does not depend on how tight
    the tier-1 bound is). Points are evaluated in sweep order, so any
    state an evaluation path carries from one point to the next is
    exercised.
    [golden/design_points.txt] holds the lines the evaluator must keep
    reproducing. *)

open Ir
module Design = Dse.Design
module Space = Dse.Space

let kernels =
  List.map (fun n -> (n, Option.get (Kernels.find n))) Kernels.names
  @ List.map (fun n -> (n, Option.get (Gallery.find n))) Gallery.names

let usage_to_string (u : ((Hls.Op_model.op_class * int) * int) list) =
  String.concat ","
    (List.map
       (fun ((cls, width), n) ->
         Printf.sprintf "%s/%d:%d" (Hls.Op_model.class_name cls) width n)
       u)

let line name model (p : Design.point) =
  let e = p.estimate in
  let md5 s = Digest.to_hex (Digest.string s) in
  Printf.sprintf
    "%s %s %s cycles=%d mem=%d comp=%d slices=%d regs=%d bits=%d states=%d \
     mems=%d reads=%d writes=%d usage=%s kernel=%s"
    name model
    (Design.config_to_string p.config)
    e.Hls.Estimate.cycles e.Hls.Estimate.mem_only_cycles
    e.Hls.Estimate.comp_only_cycles e.Hls.Estimate.slices
    e.Hls.Estimate.register_bits e.Hls.Estimate.bits_moved
    e.Hls.Estimate.states e.Hls.Estimate.memories_used e.Hls.Estimate.reads
    e.Hls.Estimate.writes
    (md5 (usage_to_string e.Hls.Estimate.usage))
    (md5 (Pretty.kernel_to_string p.kernel))

let lines () =
  List.concat_map
    (fun (name, k) ->
      let context pipelined =
        Design.context ~profile:(Hls.Estimate.default_profile ~pipelined ()) k
      in
      let swept pipelined model =
        let t = Space.sweep ~max_product:64 ~jobs:1 (context pipelined) in
        List.map (line name model) t.Space.points
      in
      let joint =
        let j =
          Space.sweep ~max_product:16 ~joint:Space.default_tile_candidates
            ~exhaustive_below:max_int ~jobs:1 (context true)
        in
        List.map (line name "joint") j.Space.points
      in
      swept true "pipelined" @ swept false "non-pipelined" @ joint)
    kernels

let golden_file = "golden/design_points.txt"

let test_golden () =
  let expected = In_channel.with_open_bin golden_file In_channel.input_lines in
  let actual = lines () in
  Alcotest.(check int) "line count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "design line" e a) expected actual

let () =
  match Sys.argv with
  | [| _; "--generate" |] -> List.iter print_endline (lines ())
  | _ ->
      Alcotest.run "design-golden"
        [ ("golden", [ Alcotest.test_case "design points match" `Quick test_golden ]) ]
