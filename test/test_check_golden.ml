(** Byte-identity oracle for [defacto check].

    For every built-in and gallery kernel and every
    [examples/checks/*.c] fixture, the human rendering of
    {!Check.Run.all} under the default configuration, then again with
    the outermost spine loop unrolled by 2 (which adds the per-options
    legality findings). A fixture the front end rejects contributes its
    error message instead. [golden/check_outcomes.txt] holds the text
    the checkers must keep reproducing; regenerate it with
    [test_check_golden.exe --generate] from the test directory. *)

open Ir

let fixture_dir = "../examples/checks"

let fixtures () =
  Sys.readdir fixture_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare

let block ~file ~kernel header ds =
  Printf.sprintf "== %s\n%s" header (Check.Run.render_human ?file ~kernel ds)

let outcomes ?file (k : Ast.kernel) =
  let kernel = k.Ast.k_name in
  let name = Option.value file ~default:kernel in
  let plain = block ~file ~kernel name (Check.Run.all k) in
  match Loop_nest.spine k.Ast.k_body with
  | [] -> [ plain ]
  | outer :: _ ->
      let index = outer.Ast.index in
      let options =
        { Transform.Pipeline.default with vector = [ (index, 2) ] }
      in
      let config = { Check.Run.default with options = Some options } in
      [
        plain;
        block ~file ~kernel
          (Printf.sprintf "%s -u %s=2" name index)
          (Check.Run.all ~config k);
      ]

let text () =
  let builtins =
    List.map (fun n -> Option.get (Kernels.find n)) Kernels.names
    @ List.map (fun n -> Option.get (Gallery.find n)) Gallery.names
  in
  let fixture f =
    let src =
      In_channel.with_open_text (Filename.concat fixture_dir f)
        In_channel.input_all
    in
    match
      Frontend.Parser.kernel_of_string_res
        ~name:(Filename.remove_extension f) src
    with
    | Ok k -> outcomes ~file:f k
    | Error msg -> [ Printf.sprintf "== %s\nfront end: %s\n" f msg ]
  in
  String.concat ""
    (List.concat_map (fun k -> outcomes k) builtins
    @ List.concat_map fixture (fixtures ()))

let golden_file = "golden/check_outcomes.txt"

let test_golden () =
  let expected = In_channel.with_open_bin golden_file In_channel.input_all in
  let split = String.split_on_char '\n' in
  let e = split expected and a = split (text ()) in
  Alcotest.(check int) "line count" (List.length e) (List.length a);
  List.iter2 (fun e a -> Alcotest.(check string) "check line" e a) e a

let () =
  match Sys.argv with
  | [| _; "--generate" |] -> print_string (text ())
  | _ ->
      Alcotest.run "check-golden"
        [ ("golden", [ Alcotest.test_case "check outcomes match" `Quick test_golden ]) ]
