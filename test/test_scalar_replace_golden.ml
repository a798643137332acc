(** Bit-identity oracle for scalar replacement.

    One line per (kernel, configuration): the MD5 digest of the printed
    [Scalar_replace.run] output and the printed report. The configurations
    are every unroll vector up to product 256 over all spine loops, the
    joint sweep's tile candidates at product 64, and the replacement-off
    ([sr-]) spelling up to product 16, over the 14 built-in and gallery
    kernels. [golden/scalar_replace.txt] holds the lines the
    per-member-edit implementation produced; the batched implementation
    must reproduce every one of them. *)

open Ir
module SR = Transform.Scalar_replace
module P = Transform.Pipeline
module Design = Dse.Design
module Space = Dse.Space

let kernels =
  List.map (fun n -> (n, Option.get (Kernels.find n))) Kernels.names
  @ List.map (fun n -> (n, Option.get (Gallery.find n))) Gallery.names

(** The configurations of one kernel in a fixed order, one per design
    ({!Design.normalize_config}), each under the first spelling
    enumerated: the label of a replacement-off configuration keeps the
    base pipeline's peel toggle, which scalar replacement never reads. *)
let configs (ctx : Design.context) =
  let eligible = List.map (fun (l : Ast.loop) -> l.Ast.index) ctx.Design.env.spine in
  let vectors max_product =
    Dse.Util.divisor_vectors ~max_product ctx ~eligible
  in
  let base = Design.base_config ctx [] in
  let unroll = List.map (fun vector -> { base with vector }) (vectors 256) in
  let tiled =
    List.concat_map
      (fun tile ->
        List.map (fun vector -> { base with vector; tile }) (vectors 64))
      (List.filter Option.is_some
         (Space.joint_tile_options ctx ~candidates:Space.default_tile_candidates))
  in
  let off =
    List.map (fun vector -> { base with vector; scalar_replace = false }) (vectors 16)
  in
  let seen = Hashtbl.create 256 in
  List.filter_map
    (fun c ->
      let key = Design.normalize_config ctx c in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.replace seen key ();
        Some c
      end)
    (unroll @ tiled @ off)

exception Replace_input of Ast.kernel

(** What the pipeline hands scalar replacement for [c]: the kernel after
    tiling and unroll-and-jam. *)
let replace_input (c : Design.config) k =
  let opts = P.apply_config ~base:P.default c in
  let observe stage ~before:_ ~after =
    if stage = P.Unroll_jam then raise (Replace_input after)
  in
  match P.apply ~observe opts k with
  | exception Replace_input k' -> (opts, k')
  | _ -> Alcotest.fail "pipeline finished without an unroll stage"

let report_to_string (r : SR.report) =
  let pairs l = String.concat "," (List.map (fun (a, n) -> Printf.sprintf "%s:%d" a n) l) in
  Printf.sprintf "hoisted=%d banks=[%s] chains=[%s] cse=%d registers=%d carriers=[%s] peels=%d"
    r.SR.hoisted_members (pairs r.SR.banks) (pairs r.SR.chain_lengths) r.SR.cse_loads
    r.SR.registers (String.concat "," r.SR.carriers) r.SR.innermost_peels

let lines () =
  List.concat_map
    (fun (name, k) ->
      let ctx = Design.context k in
      List.map
        (fun c ->
          let opts, input = replace_input c k in
          let out, report = SR.run ~config:opts.P.scalar input in
          Printf.sprintf "%s %s %s %s" name (P.config_to_string c)
            (Digest.to_hex (Digest.string (Pretty.kernel_to_string out)))
            (report_to_string report))
        (configs ctx))
    kernels

let golden_file = "golden/scalar_replace.txt"

let test_golden () =
  let expected = In_channel.with_open_bin golden_file In_channel.input_lines in
  let actual = lines () in
  Alcotest.(check int) "line count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "digest line" e a) expected actual

let () =
  Alcotest.run "scalar-replace-golden"
    [ ("golden", [ Alcotest.test_case "digests match" `Quick test_golden ]) ]
