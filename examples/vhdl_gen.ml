(** Generating behavioral VHDL for a selected design — the output the
    DEFACTO flow hands to behavioral synthesis (SUIF2VHDL stage).

    {v dune exec examples/vhdl_gen.exe [kernel] v}

    Writes [<kernel>_selected.vhd] to the current directory and prints a
    summary. *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "fir" in
  let kernel =
    match Kernels.find name with
    | Some k -> k
    | None ->
        Printf.eprintf "unknown kernel %s (have: %s)\n" name
          (String.concat ", " Kernels.names);
        exit 1
  in
  let profile = Hls.Estimate.default_profile ~pipelined:true () in
  let ctx = Dse.Design.context ~profile kernel in
  let res = Dse.Search.run ctx in
  let sel = res.selected in
  Format.printf "selected design for %s: %a@." name Dse.Design.pp_point sel;
  let vhdl =
    Vhdl.Emit.emit_with_layout ~num_memories:4 sel.kernel
  in
  let path = name ^ "_selected.vhd" in
  Out_channel.with_open_text path (fun oc -> output_string oc vhdl);
  Format.printf "wrote %s (%d lines)@." path
    (List.length (String.split_on_char '\n' vhdl));
  (* show the entity declaration *)
  let lines = String.split_on_char '\n' vhdl in
  let rec show started = function
    | [] -> ()
    | l :: rest ->
        let started =
          started
          ||
          match String.index_opt l 'e' with
          | Some 0 -> String.length l > 6 && String.sub l 0 6 = "entity"
          | _ -> false
        in
        if started then begin
          print_endline l;
          if String.length l >= 10 && String.sub l 0 10 = "end entity" then ()
          else show true rest
        end
        else show false rest
  in
  print_newline ();
  show false lines
