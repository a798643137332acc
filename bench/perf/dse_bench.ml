(** [dse_bench]: the design-space-exploration benchmark (see README.md).

    {v
    dse_bench --workload W --seed N [--seconds S] [--trace [0|1]]
    dse_bench --seed N                 every workload in turn
    dse_bench --smoke                  one small kernel per workload, traced
    dse_bench --compare OLD NEW        OLD/NEW: results dir or bundle[:SET]
    dse_bench --bundle OUT DIR...      collect run files into one bundle
    v}

    End-to-end numbers come from running the [defacto] binary as child
    processes in a closed loop: one child at a time, the next command
    only after the previous one exits. The traced run replays the points
    those commands printed through the library's layers ({!Replay}). *)

type opts = {
  workloads : Workload.t list;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  dir : string;  (** the benchmark's directory: expected/, _work/ *)
  defacto : string;
  results : string;  (** run files go here *)
}

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("dse_bench: " ^ msg); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Running defacto *)

type tally = {
  mutable attempted : int;  (** defacto commands run *)
  mutable exits : int;  (** ... that exited non-zero *)
  mutable wrong : int;  (** outputs failing the oracle *)
}

let wrong tally fmt =
  Printf.ksprintf
    (fun msg ->
      tally.wrong <- tally.wrong + 1;
      prerr_endline ("dse_bench: wrong output: " ^ msg))
    fmt

let defacto tally ~opts ~work args =
  tally.attempted <- tally.attempted + 1;
  let r = Probe.run ~dir:work opts.defacto args in
  if r.Probe.code <> 0 then begin
    tally.exits <- tally.exits + 1;
    Printf.eprintf "dse_bench: defacto %s exited %d\n%s\n%!" (String.concat " " args)
      r.Probe.code r.Probe.err
  end;
  r

type pass = { wall : float; runs : (Workload.cmd * Probe.run) list }

let run_pass tally ~opts ~work cmds =
  let t0 = Probe.now () in
  let runs = List.map (fun c -> (c, defacto tally ~opts ~work (Workload.args c))) cmds in
  { wall = Probe.now () -. t0; runs }

(* ------------------------------------------------------------------ *)
(* Set-up *)

type setup = {
  gens : (Workload.src * Gen.kernel) list;
  rejections : int;  (** generated kernels [defacto check] refused *)
  cold : pass option;  (** warm workload: the run that built the store *)
}

(** Draw the workload's kernels and keep those [defacto check -f]
    accepts; a refused candidate is redrawn and counted. *)
let generate tally ~opts ~work (w : Workload.t) =
  let rejections = ref 0 in
  let gens =
    List.mapi
      (fun index slot ->
        let name = Printf.sprintf "g%02d" (index + 1) in
        let file = Filename.concat work (name ^ ".c") in
        let rec attempt n =
          let k = Gen.draw ~seed:opts.seed ~index ~attempt:n ~name slot in
          Out_channel.with_open_bin file (fun oc -> output_string oc k.Gen.source);
          tally.attempted <- tally.attempted + 1;
          if (Probe.run ~dir:work opts.defacto [ "check"; "-f"; file ]).Probe.code = 0 then k
          else if n >= 20 then die "slot %s: 20 candidates refused by defacto check" name
          else begin
            incr rejections;
            attempt (n + 1)
          end
        in
        let k = attempt 0 in
        ({ Workload.kname = name; text = k.Gen.source; file = Some file }, k))
      (if opts.smoke then List.filteri (fun i _ -> i = 0) w.Workload.slots else w.Workload.slots)
  in
  (gens, !rejections)

let setup tally ~opts ~work ~cache (w : Workload.t) =
  if w.Workload.warm then begin
    Fs.rm_rf cache;
    let cmds = w.Workload.pass ~smoke:opts.smoke ~seed:opts.seed ~cache [] in
    { gens = []; rejections = 0; cold = Some (run_pass tally ~opts ~work cmds) }
  end
  else
    let gens, rejections = generate tally ~opts ~work w in
    { gens; rejections; cold = None }

(* ------------------------------------------------------------------ *)
(* Output oracle *)

(** [expected/<workload>.txt]: "<kernel> <memory> <selection line>" per
    built-in kernel and command kind ([selected:] from explore,
    [# best fitting:] from space), as this repository's selections read. *)
let load_expected ~opts (w : Workload.t) =
  let path = Filename.concat opts.dir (Filename.concat "expected" (w.Workload.name ^ ".txt")) in
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path In_channel.input_lines
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | kernel :: memory :: rest when rest <> [] ->
               Some ((kernel, memory), String.concat " " rest)
           | _ -> None)

(** Per kernel of a command, the selection line it printed. *)
let selections tally (c, (r : Probe.run)) =
  let sel = Workload.selections c r.Probe.out in
  if List.length sel <> List.length c.Workload.kernels then begin
    wrong tally "%s: %d selection line(s) for %d kernel(s)" (Workload.key c)
      (List.length sel) (List.length c.Workload.kernels);
    []
  end
  else List.combine c.Workload.kernels sel

(** Check one pass's outputs: selections against [expected/] (full-size
    runs) and the cold run (warm workload); every unroll-vector
    selection through [defacto simulate], which must print IDENTICAL
    with simulated cycles equal to the estimator's and the selection's. *)
let oracle tally ~opts ~work (w : Workload.t) ~(cold : pass option) (p : pass) =
  let expected = load_expected ~opts w in
  let lines (p : pass) =
    List.concat_map
      (fun ((c, _) as run) ->
        List.map
          (fun ((k : Workload.src), l) -> ((Workload.key c, k.kname), l))
          (selections tally run))
      p.runs
  in
  let cold_lines = match cold with Some c -> lines c | None -> [] in
  List.iter
    (fun ((c, _) as run) ->
      List.iter
        (fun ((k : Workload.src), line) ->
          let memory = Workload.memory c in
          (if (not opts.smoke) && k.Workload.file = None then
             let explore_line = String.starts_with ~prefix:"selected:" in
             let same_kind e = explore_line e = explore_line line in
             match
               List.find_map
                 (fun (km, e) ->
                   if km = (k.Workload.kname, memory) && same_kind e then Some e else None)
                 expected
             with
             | Some e when e = line -> ()
             | Some e -> wrong tally "%s %s: %S, expected %S" k.kname memory line e
             | None -> wrong tally "%s %s: no expected selection" k.kname memory);
          (if cold <> None then
             match List.assoc_opt (Workload.key c, k.kname) cold_lines with
             | Some l when l = line -> ()
             | _ -> wrong tally "%s %s: warm selection differs from cold" k.kname memory);
          match Workload.simulable_vector line with
          | None -> ()
          | Some vector ->
              let r =
                defacto tally ~opts ~work
                  ([ "simulate" ] @ Workload.kernel_args k @ [ "-u"; vector ]
                  @ if c.Workload.pipelined then [] else [ "--non-pipelined" ])
              in
              let sim = Workload.lines_with "simulated " r.Probe.out in
              let cycles l = Workload.int_after l in
              let ok =
                List.exists (fun l -> String.ends_with ~suffix:"IDENTICAL" l)
                  (String.split_on_char '\n' r.Probe.out)
                &&
                match sim with
                | [ s ] ->
                    let simulated = cycles "simulated " s in
                    simulated <> None
                    && simulated = cycles "(estimator: " s
                    && simulated = cycles "cycles=" line
                | _ -> false
              in
              if not ok then wrong tally "simulate %s -u %s (%s)" k.kname vector memory)
        (selections tally run))
    p.runs

(** Later passes must print what the first one did. *)
let same_outputs tally ~(first : pass) (p : pass) =
  List.iter2
    (fun (c, (a : Probe.run)) (_, (b : Probe.run)) ->
      if
        Workload.selections c a.Probe.out <> Workload.selections c b.Probe.out
        || Workload.syntheses c a.Probe.out <> Workload.syntheses c b.Probe.out
      then wrong tally "%s: output changed between passes" (Workload.key c))
    first.runs p.runs

(* ------------------------------------------------------------------ *)
(* Metrics *)

(** A metric's value and the repetitions it was taken from. *)
type metric = { value : float; samples : float list }

let median_of xs = { value = Stats.median xs; samples = xs }

(* Other tenants of the machine slow whole passes down by 15-35% for
   seconds to minutes, and never speed one up; the fastest repetition
   is the timing least disturbed by them (see README.md). *)
let fastest_of xs = { value = Stats.minimum xs; samples = xs }

let exact v = { value = v; samples = [ v ] }

(** min, quartiles and count of a metric taken from repetitions. *)
let distribution m =
  match m.samples with
  | [] | [ _ ] -> []
  | xs ->
      let q1, median, q3 = Stats.quartiles xs in
      [ ("min", Stats.minimum xs); ("q1", q1); ("median", median); ("q3", q3);
        ("n", float_of_int (List.length xs)) ]

let syntheses_of (p : pass) =
  List.fold_left
    (fun acc (c, (r : Probe.run)) ->
      acc + Option.value ~default:0 (Workload.syntheses c r.Probe.out))
    0 p.runs

let alloc_mwords (p : pass) =
  List.fold_left (fun acc (_, r) -> acc +. Probe.gc_stat r "allocated_words") 0.0 p.runs /. 1e6

let peak_rss (p : pass) = List.fold_left (fun acc (_, r) -> Float.max acc r.Probe.rss_mb) 0.0 p.runs

(** Each command's fastest wall time over the passes. *)
let command_walls (passes : pass list) =
  List.mapi
    (fun i _ -> Stats.minimum (List.map (fun p -> (snd (List.nth p.runs i)).Probe.wall) passes))
    (List.hd passes).runs

let end_to_end ~setups (passes : pass list) =
  [
    ("wall_s", fastest_of (List.map (fun p -> p.wall) passes));
    ("cmd_geomean_s", exact (Stats.geomean (command_walls passes)));
    ("peak_rss_mb", median_of (List.map peak_rss passes));
    ("alloc_mwords", median_of (List.map alloc_mwords passes));
    ("setup_s", median_of setups);
    ("syntheses", median_of (List.map (fun p -> float_of_int (syntheses_of p)) passes));
  ]

let per_command (passes : pass list) =
  List.mapi
    (fun i ((c, _), fastest_s) ->
      let runs = List.map (fun p -> snd (List.nth p.runs i)) passes in
      Json.Obj
        [
          ("command", Json.Str (String.concat " " (Workload.args c)));
          ("fastest_s", Json.Num fastest_s);
          ("peak_rss_mb", Json.Num (Stats.median (List.map (fun r -> r.Probe.rss_mb) runs)));
          ("alloc_mwords", Json.Num (Probe.gc_stat (List.hd runs) "allocated_words" /. 1e6));
          ( "syntheses",
            Json.Num
              (float_of_int
                 (Option.value ~default:0 (Workload.syntheses c (List.hd runs).Probe.out))) );
        ])
    (List.combine (List.hd passes).runs (command_walls passes))

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json: the metric names, units and directions *)

let load_benchmark dir =
  try Compare.load_benchmark (Filename.concat dir "../../BENCHMARK.json")
  with Sys_error msg | Json.Parse_error msg -> die "BENCHMARK.json: %s" msg

(* Counts compared with a bound of 0. wrong_outputs and failure_rate
   read 0 at a correct commit and syntheses reads 0 on warm; since no
   end-to-end metric of BENCHMARK.json may read 0, it lists syntheses
   as a per-layer metric and the outcome counts not at all. *)
let count_specs =
  List.map
    (fun (name, unit_) -> { Compare.name; unit_; better = "lower"; bound = Some 0.0 })
    [ ("syntheses", "count"); ("wrong_outputs", "count"); ("failure_rate", "ratio") ]

(* ------------------------------------------------------------------ *)
(* One run *)

(* The checked-out commit, read from .git without running git (which
   would search directories above the checkout). *)
let git_commit () =
  let read f =
    String.trim (In_channel.with_open_bin (Filename.concat ".git" f) In_channel.input_all)
  in
  try
    match read "HEAD" with
    | head when String.starts_with ~prefix:"ref: " head -> (
        let ref_ = String.sub head 5 (String.length head - 5) in
        try read ref_
        with Sys_error _ ->
          read "packed-refs" |> String.split_on_char '\n'
          |> List.find_map (fun l ->
                 match String.split_on_char ' ' l with
                 | [ sha; r ] when r = ref_ -> Some sha
                 | _ -> None)
          |> Option.value ~default:"unknown")
    | sha -> sha
  with Sys_error _ -> "unknown"

let environment opts =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (git_commit ()));
      ("defacto", Json.Str opts.defacto);
    ]

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * metric) list;
}

let run_workload opts (bench : Compare.benchmark) (w : Workload.t) =
  let tally = { attempted = 0; exits = 0; wrong = 0 } in
  let tag = Printf.sprintf "%s-%d" w.Workload.name opts.seed in
  let work = Filename.concat opts.dir (Filename.concat "_work" tag) in
  Fs.rm_rf work;
  Fs.mkdir_p work;
  let cache = Filename.concat work "store" in
  Printf.printf "## workload %s, seed %d%s\n%!" w.Workload.name opts.seed
    (if opts.trace then ", traced" else "");
  let timed_setup () =
    let t0 = Probe.now () in
    let s = setup tally ~opts ~work ~cache w in
    (Probe.now () -. t0, s)
  in
  let t_setup, s = timed_setup () in
  List.iter (fun (_, k) -> print_endline ("kernel " ^ Gen.describe k)) s.gens;
  if s.rejections > 0 then
    Printf.printf "generator: %d candidate(s) refused by defacto check\n" s.rejections;
  (* Set-up repeats between the passes, so that a slow spell of the
     machine cannot take every repetition: after each pass until set-up
     has had its share of two seconds, and at least three times in all.
     setup_s is the median. Every repetition must produce the same
     inputs. *)
  let setups = ref [ t_setup ] in
  let setup_again () =
    let t, again = timed_setup () in
    let texts x = List.map (fun (k, _) -> k.Workload.text) x.gens in
    if texts again <> texts s then wrong tally "set-up drew different kernels for the same seed";
    Option.iter (fun cold -> same_outputs tally ~first:(Option.get s.cold) cold) again.cold;
    setups := t :: !setups
  in
  let setup_catch_up share =
    if not opts.trace then
      while List.length !setups < 200 && List.fold_left ( +. ) 0.0 !setups < 2.0 *. share do
        setup_again ()
      done
  in
  let cmds = w.Workload.pass ~smoke:opts.smoke ~seed:opts.seed ~cache (List.map fst s.gens) in
  let first = run_pass tally ~opts ~work cmds in
  oracle tally ~opts ~work w ~cold:s.cold first;
  if w.Workload.warm && syntheses_of first <> 0 then
    wrong tally "warm pass synthesized %d point(s)" (syntheses_of first);
  let another_pass () =
    let p = run_pass tally ~opts ~work cmds in
    same_outputs tally ~first p;
    p
  in
  (* Passes fill --seconds: another starts while at least half of one
     still fits. *)
  let rec loop acc elapsed =
    setup_catch_up (Float.min 1.0 (elapsed /. opts.seconds));
    let mean = elapsed /. float_of_int (List.length acc) in
    if elapsed +. (mean /. 2.0) > opts.seconds then List.rev acc
    else
      let p = another_pass () in
      loop (p :: acc) (elapsed +. p.wall)
  in
  (* Traced, a replay sample and a pass alternate for --seconds, so that
     a slow spell of the machine falls on both sides of trace.coverage.
     The smoke run makes one pass and one sample. *)
  let rec rounds t0 passes samples =
    let samples =
      Replay.sample ~work ~on_mismatch:(fun msg -> wrong tally "replay: %s" msg) first.runs
      :: samples
    in
    if opts.smoke || Probe.now () -. t0 >= opts.seconds then (List.rev passes, List.rev samples)
    else rounds t0 (another_pass () :: passes) samples
  in
  let passes, layer, layer_by_command =
    if opts.trace then
      let passes, samples = rounds (Probe.now ()) [ first ] [] in
      let layer, by_command =
        Replay.summarize ~work ~walls:(command_walls passes) first.runs samples
      in
      (passes, layer, by_command)
    else begin
      let passes = loop [ first ] first.wall in
      while List.length !setups < 3 do
        setup_again ()
      done;
      (passes, [], [])
    end
  in
  let setups = !setups in
  let metrics =
    end_to_end ~setups passes
    @ List.map (fun (name, v) -> (name, exact v)) layer
    @ [
        ("wrong_outputs", exact (float_of_int tally.wrong));
        ( "failure_rate",
          exact (float_of_int tally.exits /. float_of_int (max 1 tally.attempted)) );
      ]
  in
  let specs = bench.end_to_end @ bench.per_layer @ count_specs in
  let unit_of name =
    match List.find_opt (fun sp -> sp.Compare.name = name) specs with
    | Some sp -> sp.Compare.unit_
    | None -> ""
  in
  List.iter
    (fun (name, m) ->
      match distribution m with
      | [] -> Printf.printf "%-32s %14.6g %s\n" name m.value (unit_of name)
      | d ->
          Printf.printf "%-32s %14.6g %-6s (%s)\n" name m.value (unit_of name)
            (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %.6g" k v) d)))
    metrics;
  let failed = tally.exits + tally.wrong in
  let correct = failed = 0 in
  let run_json =
    Json.Obj
      [
        ("workload", Json.Str w.Workload.name);
        ("seed", Json.Num (float_of_int opts.seed));
        ("set", Json.Str (Filename.basename opts.results));
        ("trace", Json.Bool opts.trace);
        ("smoke", Json.Bool opts.smoke);
        ("env", environment opts);
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int tally.attempted));
        ("failed", Json.Num (float_of_int failed));
        ("generator_rejections", Json.Num (float_of_int s.rejections));
        ("kernels", Json.Arr (List.map (fun (_, k) -> Json.Str (Gen.describe k)) s.gens));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, m) ->
                 ( name,
                   Json.Obj
                     ([ ("value", Json.Num m.value); ("unit", Json.Str (unit_of name)) ]
                     @ List.map (fun (k, v) -> (k, Json.Num v)) (distribution m)) ))
               metrics) );
        ("pass_walls", Json.Arr (List.map (fun p -> Json.Num p.wall) passes));
        ("commands", Json.Arr (per_command passes));
        ( "layers_by_command",
          Json.Obj
            (List.map
               (fun (key, ms) -> (key, Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) ms)))
               layer_by_command) );
      ]
  in
  Fs.mkdir_p opts.results;
  let file =
    Filename.concat opts.results (tag ^ (if opts.trace then "-trace" else "") ^ ".json")
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Json.to_string ~indent:true run_json);
      output_char oc '\n');
  Printf.printf "results: %s\n%!" file;
  { workload = w.Workload.name; correct; attempted = tally.attempted; failed; metrics }

(** The result line: exactly the metrics BENCHMARK.json lists for the
    mode, keyed [workload/metric] when several workloads ran. *)
let summary_line ~prefix (specs : Compare.spec list) (results : result list) =
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun (sp : Compare.spec) ->
            match List.assoc_opt sp.name r.metrics with
            | Some m ->
                ( (if prefix then r.workload ^ "/" ^ sp.name else sp.name),
                  Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str sp.unit_) ] )
            | None -> die "metric %s is in BENCHMARK.json but not measured" sp.name)
          specs)
      results
  in
  let sum f = Json.Num (float_of_int (List.fold_left (fun a r -> a + f r) 0 results)) in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all (fun r -> r.correct) results));
         ("attempted", sum (fun r -> r.attempted));
         ("failed", sum (fun r -> r.failed));
         ("metrics", Json.Obj metrics);
       ])

(* ------------------------------------------------------------------ *)
(* Command line *)

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let get flag default conv =
    let rec find = function
      | f :: v :: _ when f = flag -> conv v
      | _ :: rest -> find rest
      | [] -> default
    in
    find argv
  in
  let has flag = List.mem flag argv in
  let int_arg flag default =
    get flag default (fun v ->
        match int_of_string_opt v with Some n -> n | None -> die "%s: bad number %S" flag v)
  in
  let dir = get "--dir" "bench/perf" Fun.id in
  let bench = load_benchmark dir in
  let trace =
    match get "--trace" (if has "--trace" then "1" else "0") Fun.id with
    | "0" -> false
    | "1" -> true
    | v when String.starts_with ~prefix:"-" v -> true
    | v -> die "--trace: expected 0 or 1, got %S" v
  in
  let smoke = has "--smoke" in
  let opts =
    {
      workloads =
        (match get "--workload" None Option.some with
        | None -> Workload.all
        | Some n -> (
            match List.find_opt (fun w -> w.Workload.name = n) Workload.all with
            | Some w -> [ w ]
            | None -> die "unknown workload %S" n));
      seed = int_arg "--seed" 1;
      seconds = float_of_int (int_arg "--seconds" (int_of_float bench.run_seconds));
      trace = trace || smoke;
      smoke;
      dir;
      defacto = get "--defacto" "_build/default/bin/defacto.exe" Fun.id;
      results = get "--results" (Filename.concat dir "_work/results") Fun.id;
    }
  in
  let rec after flag = function
    | f :: rest when f = flag -> rest
    | _ :: rest -> after flag rest
    | [] -> []
  in
  if has "--compare" then
    match after "--compare" argv with
    | old_ :: new_ :: _ -> exit (Compare.run ~specs:(bench.end_to_end @ count_specs) old_ new_)
    | _ -> die "--compare takes OLD NEW"
  else if has "--bundle" then
    match after "--bundle" argv with
    | out :: dirs when dirs <> [] -> Compare.bundle out dirs
    | _ -> die "--bundle takes OUT DIR..."
  else begin
    if not (Sys.file_exists opts.defacto) then
      die "no defacto binary at %s (build it with dune build, or pass --defacto)" opts.defacto;
    let results = List.map (run_workload opts bench) opts.workloads in
    print_endline
      (summary_line ~prefix:(List.length results > 1)
         (if opts.trace then bench.per_layer else bench.end_to_end)
         results);
    (* The smoke run is a test: it fails on any wrong output. *)
    if smoke && not (List.for_all (fun r -> r.correct) results) then exit 1
  end
