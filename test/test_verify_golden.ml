(** Bit-identity oracle for the verified evaluation path.

    One line per (kernel, configuration) of [Space.sweep ~max_product:64]
    on a pipelined context, over the 14 built-in and gallery kernels:
    the count and MD5 digest of the rendered {!Check.Validate.run}
    diagnostics at that configuration (Info skips included), then the
    count and digest of the {!Check.Uninit} and {!Check.Deadstore}
    diagnostics on the transformed kernel. Each kernel's block ends
    with the count and digest of {!Check.Run.all} on the source kernel.
    [golden/verify_outcomes.txt] holds the lines the checkers must keep
    reproducing. *)

module Design = Dse.Design
module Space = Dse.Space

let kernels =
  List.map (fun n -> (n, Option.get (Kernels.find n))) Kernels.names
  @ List.map (fun n -> (n, Option.get (Gallery.find n))) Gallery.names

let summary diags =
  let text = String.concat "\n" (List.map Check.Diag.render diags) in
  Printf.sprintf "%d:%s" (List.length diags) (Digest.to_hex (Digest.string text))

let point_line name k (p : Design.point) =
  let options =
    Transform.Pipeline.apply_config ~base:Transform.Pipeline.default p.config
  in
  let outcome = Check.Validate.run ~options k in
  let flow =
    match outcome.Check.Validate.result with
    | None -> "none"
    | Some r ->
        let k = r.Transform.Pipeline.kernel in
        let graph = Analysis.Flowgraph.build k in
        summary (Check.Uninit.check ~graph k @ Check.Deadstore.check ~graph k)
  in
  Printf.sprintf "%s %s validate=%s flow=%s" name
    (Transform.Pipeline.config_to_string p.config)
    (summary outcome.Check.Validate.diags)
    flow

let lines () =
  List.concat_map
    (fun (name, k) ->
      let ctx =
        Design.context ~profile:(Hls.Estimate.default_profile ~pipelined:true ()) k
      in
      let t = Space.sweep ~max_product:64 ~jobs:1 ctx in
      List.map (point_line name k) t.Space.points
      @ [ Printf.sprintf "%s source check=%s" name (summary (Check.Run.all k)) ])
    kernels

let golden_file = "golden/verify_outcomes.txt"

let test_golden () =
  let expected = In_channel.with_open_bin golden_file In_channel.input_lines in
  let actual = lines () in
  Alcotest.(check int) "line count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "verify line" e a) expected actual

let () =
  match Sys.argv with
  | [| _; "--generate" |] -> List.iter print_endline (lines ())
  | _ ->
      Alcotest.run "verify-golden"
        [ ("golden", [ Alcotest.test_case "verify outcomes match" `Quick test_golden ]) ]
