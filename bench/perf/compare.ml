(** Metric specifications from [BENCHMARK.json], and [--compare]: per
    workload and metric, old and new medians, the change and the bound,
    and a verdict (the rules of the choosing-metrics guide, §6–8). *)

type spec = { name : string; unit_ : string; better : string; bound : float option }

type benchmark = { end_to_end : spec list; per_layer : spec list; run_seconds : float }

let load_benchmark path =
  let j = Json.of_file path in
  let specs key =
    List.map
      (fun m ->
        {
          name = Json.str (Json.member "name" m);
          unit_ = Json.str (Json.member "unit" m);
          better = Json.str (Json.member "better" m);
          bound = (match Json.member "bound" m with Some (Json.Num b) -> Some b | _ -> None);
        })
      (Json.list (Json.member key j))
  in
  {
    end_to_end = specs "end_to_end";
    per_layer = specs "per_layer";
    run_seconds = Json.num (Json.member "run_seconds" j);
  }

type run = {
  workload : string;
  seed : float;
  set : string;
  trace : bool;
  metrics : (string * float) list;
}

let run_of_json j =
  {
    workload = Json.str (Json.member "workload" j);
    seed = Json.num (Json.member "seed" j);
    set = Json.str (Json.member "set" j);
    trace = Json.member "trace" j = Some (Json.Bool true);
    metrics =
      List.map
        (fun (k, v) -> (k, Json.num (Json.member "value" v)))
        (Json.fields (Json.member "metrics" j));
  }

let dir_runs dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.map (fun f -> Json.of_file (Filename.concat dir f))

(** Runs named by [PATH] or [PATH:SET]: a results directory, one run
    file, or a bundle (["runs"]: [...]); [SET] keeps the runs of that
    set (the results directory they were written to). *)
let load spec =
  let path, set =
    match String.rindex_opt spec ':' with
    | Some i when not (Sys.file_exists spec) ->
        (String.sub spec 0 i, Some (String.sub spec (i + 1) (String.length spec - i - 1)))
    | _ -> (spec, None)
  in
  let jsons =
    if Sys.is_directory path then dir_runs path
    else
      let j = Json.of_file path in
      match Json.member "runs" j with Some (Json.Arr l) -> l | _ -> [ j ]
  in
  List.map run_of_json jsons
  |> List.filter (fun r -> match set with Some s -> r.set = s | None -> true)

let bundle out dirs =
  let runs = List.concat_map dir_runs dirs in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc (Json.to_string ~indent:true (Json.Obj [ ("runs", Json.Arr runs) ]));
      output_char oc '\n');
  Printf.printf "%s: %d run(s)\n" out (List.length runs)

(** Relative change, signed so that positive is worse; absolute when the
    old median is 0. *)
let worsening ~lower old_ new_ =
  let d = if old_ = 0.0 then new_ -. old_ else (new_ -. old_) /. Float.abs old_ in
  if lower then d else -.d

let spread xs =
  let q1, m, q3 = Stats.quartiles xs in
  if q3 = q1 then 0.0 else if m = 0.0 then infinity else (q3 -. q1) /. Float.abs m

(** better / worse / unchanged / unresolved. A count (bound 0) is
    unchanged when it repeats in every pair of runs matched by seed. A
    spread wider than the bound is unresolved unless every new run beats
    every old one; a gain needs a median change beyond the old spread
    and wins in at least nine tenths of the runs paired by seed. *)
let verdict ~lower ~bound (olds : (float * float) list) (news : (float * float) list) =
  let ov = List.map snd olds and nv = List.map snd news in
  let beats a b = if lower then a < b else a > b in
  let d = worsening ~lower (Stats.median ov) (Stats.median nv) in
  let pairs =
    match List.filter (fun (s, _) -> List.mem_assoc s olds) news with
    | [] -> List.concat_map (fun (_, n) -> List.map (fun (_, o) -> (o, n)) olds) news
    | matched -> List.map (fun (s, n) -> (List.assoc s olds, n)) matched
  in
  let wins = List.length (List.filter (fun (o, n) -> beats n o) pairs) in
  if bound = 0.0 then
    if List.for_all (fun (o, n) -> o = n) pairs then "unchanged"
    else if d > 0.0 then "worse"
    else if d < 0.0 then "better"
    else "unresolved"
  else if d < 0.0 && List.for_all (fun n -> List.for_all (beats n) ov) nv then "better"
  else if Float.max (spread ov) (spread nv) > bound then "unresolved"
  else if d > bound then "worse"
  else if -.d > spread ov && float_of_int wins >= 0.9 *. float_of_int (List.length pairs) then
    "better"
  else "unchanged"

(** Print the comparison; the exit code is 1 when any metric is worse. *)
let run ~specs old_spec new_spec =
  let prefer_untraced runs =
    let untraced = List.filter (fun r -> not r.trace) runs in
    if untraced = [] then runs else untraced
  in
  let olds = prefer_untraced (load old_spec) and news = prefer_untraced (load new_spec) in
  Printf.printf "%-8s %-16s %14s %14s %10s %7s  %s\n" "workload" "metric" "old median"
    "new median" "change" "bound" "verdict";
  let worse = ref false in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) olds) in
  List.iter
    (fun w ->
      List.iter
        (fun sp ->
          let values runs =
            List.filter_map
              (fun r ->
                if r.workload <> w then None
                else Option.map (fun v -> (r.seed, v)) (List.assoc_opt sp.name r.metrics))
              runs
          in
          match (values olds, values news, sp.bound) with
          | (_ :: _ as o), (_ :: _ as n), Some bound ->
              let lower = sp.better = "lower" in
              let om = Stats.median (List.map snd o) and nm = Stats.median (List.map snd n) in
              let v = verdict ~lower ~bound o n in
              if v = "worse" then worse := true;
              let change =
                if om = 0.0 then Printf.sprintf "%+.4g" (nm -. om)
                else Printf.sprintf "%+.2f%%" (100.0 *. (nm -. om) /. Float.abs om)
              in
              Printf.printf "%-8s %-16s %14.6g %14.6g %10s %6.1f%%  %s\n" w sp.name om nm change
                (100.0 *. bound) v
          | _ -> ())
        specs)
    workloads;
  if !worse then 1 else 0
