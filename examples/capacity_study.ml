(** How the selected design adapts to device capacity — the space
    constraint branch of the search algorithm (FindLargestFit): shrink
    the device and watch the search settle for smaller designs.

    {v dune exec examples/capacity_study.exe v} *)

let () =
  let kernel = Option.get (Kernels.find "mm") in
  let profile = Hls.Estimate.default_profile ~pipelined:true () in
  Format.printf "kernel mm; device capacities swept from generous to tiny@.@.";
  Format.printf "%10s %16s %10s %10s %10s@." "capacity" "selected" "slices"
    "cycles" "speedup";
  let base_ctx = Dse.Design.context ~profile kernel in
  let base =
    Dse.Design.evaluate base_ctx
      (Dse.Design.base_config base_ctx (Dse.Design.ubase base_ctx))
  in
  List.iter
    (fun capacity ->
      let ctx = { base_ctx with Dse.Design.capacity } in
      let res = Dse.Search.run ctx in
      let sel = res.selected in
      Format.printf "%10d %16s %10d %10d %9.2fx@." capacity
        (Format.asprintf "%a" Dse.Design.pp_vector sel.vector)
        (Dse.Design.space sel) (Dse.Design.cycles sel)
        (float_of_int (Dse.Design.cycles base)
        /. float_of_int (Dse.Design.cycles sel)))
    [ 12288; 9000; 7000; 5000; 4200; 4000 ];
  Format.printf
    "@.Every selected design fits its device; smaller devices trade cycles for area.@."
