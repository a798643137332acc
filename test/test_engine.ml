(** The layered evaluation engine: persistent store round-trips (warm
    estimates field-for-field equal to cold, zero syntheses), cache-key
    invalidation, corruption tolerance, backend-composition equivalence
    (the tier-1 gate never changes a selection), multi-kernel sessions
    selecting identically to sequential runs, pool-backed sweeps, and
    the end-to-end cold/warm CLI acceptance run over the paper's five
    kernels. *)

module Design = Dse.Design
module Search = Dse.Search
module Space = Dse.Space
module Store = Engine.Store
module Backend = Engine.Backend
module Persist = Engine.Persist

let profile = Hls.Estimate.default_profile ()

let fresh_dir () =
  let f = Filename.temp_file "defacto-test-store" "" in
  Sys.remove f;
  f

let rm_store dir = ignore (Persist.clear ~cache_dir:dir)

let config ?(backend = Backend.default) ?(profile = profile) () =
  Persist.config_string ~backend:backend.Backend.name profile
    Transform.Pipeline.default

let kernel name = Option.get (Kernels.find name)

(* ------------------------------------------------------------------ *)
(* Store fork/absorb and persistence round-trip *)

let save_all dir cfg (k : Ir.Ast.kernel) (store : Store.t) =
  Persist.save_points ~cache_dir:dir ~config:cfg
    ~kernel_key:(Persist.kernel_key k) store;
  Persist.save_memo ~cache_dir:dir ~config:cfg store.Store.sched_memo

let load_all dir cfg (k : Ir.Ast.kernel) (store : Store.t) =
  let n =
    Persist.load_points ~cache_dir:dir ~config:cfg
      ~kernel_key:(Persist.kernel_key k) store
  in
  ignore (Persist.load_memo ~cache_dir:dir ~config:cfg store.Store.sched_memo);
  n

(* Cold sweep, persist, reload into a fresh store, warm sweep: zero
   syntheses and bit-identical points (estimates field-for-field equal —
   Marshal round-trips floats exactly). *)
let roundtrip_prop (k : Ir.Ast.kernel) =
  let dir = fresh_dir () in
  let cfg = config () in
  let cold_ctx = Design.context ~profile k in
  let cold = Space.sweep ~max_product:8 ~jobs:1 cold_ctx in
  save_all dir cfg k cold_ctx.Design.store;
  let warm_store = Store.create () in
  let loaded = load_all dir cfg k warm_store in
  let warm_ctx = Design.context ~profile ~store:warm_store k in
  let warm = Space.sweep ~max_product:8 ~jobs:1 warm_ctx in
  rm_store dir;
  if loaded <> Store.size cold_ctx.Design.store then
    QCheck2.Test.fail_reportf "loaded %d of %d points" loaded
      (Store.size cold_ctx.Design.store);
  if warm_ctx.Design.store.stats.evaluations <> 0 then
    QCheck2.Test.fail_reportf "warm sweep synthesized %d designs"
      warm_ctx.Design.store.stats.evaluations;
  if warm.Space.points <> cold.Space.points then
    QCheck2.Test.fail_reportf "warm points differ from cold";
  true

let test_roundtrip_random =
  Helpers.qtest "persistent store round-trip (random kernels)" ~count:15
    Helpers.gen_kernel roundtrip_prop

let test_roundtrip_fir () =
  Alcotest.(check bool) "fir round-trip" true (roundtrip_prop (kernel "fir"))

(* A store written under one configuration is never read under another. *)
let test_invalidation () =
  let k = kernel "fir" in
  let dir = fresh_dir () in
  let cfg = config () in
  let ctx = Design.context ~profile k in
  ignore (Space.sweep ~max_product:8 ~jobs:1 ctx);
  save_all dir cfg k ctx.Design.store;
  let other_profile =
    {
      profile with
      Hls.Estimate.device =
        { profile.Hls.Estimate.device with Hls.Device.num_memories = 2 };
    }
  in
  let other_cfg = config ~profile:other_profile () in
  Alcotest.(check bool) "configs differ" true (cfg <> other_cfg);
  let s = Store.create () in
  Alcotest.(check int) "other device loads nothing" 0 (load_all dir other_cfg k s);
  let s2 = Store.create () in
  Alcotest.(check bool) "same config loads" true (load_all dir cfg k s2 > 0);
  (* A backend is part of the key too: lowlevel never sees full's points. *)
  let ll_cfg = config ~backend:Backend.lowlevel () in
  let s3 = Store.create () in
  Alcotest.(check int) "other backend loads nothing" 0 (load_all dir ll_cfg k s3);
  rm_store dir

(* Corrupt or truncated files read as cold, never as an error, and a
   clear keeps files it does not recognize. *)
let test_corruption_and_clear () =
  let k = kernel "fir" in
  let dir = fresh_dir () in
  let cfg = config () in
  let ctx = Design.context ~profile k in
  ignore (Design.evaluate ctx (Design.base_config ctx [ ("j", 2) ]));
  save_all dir cfg k ctx.Design.store;
  (* Truncate the points file to a prefix. *)
  let cfg_dir =
    Filename.concat (Filename.concat dir "v1")
      (Digest.to_hex (Digest.string cfg))
  in
  let points_file =
    Filename.concat cfg_dir ("points-" ^ Persist.kernel_key k ^ ".bin")
  in
  let data = In_channel.with_open_bin points_file In_channel.input_all in
  Out_channel.with_open_bin points_file (fun oc ->
      Out_channel.output_string oc (String.sub data 0 (String.length data / 3)));
  let s = Store.create () in
  Alcotest.(check int) "truncated file loads nothing" 0 (load_all dir cfg k s);
  (* Overwrite with garbage. *)
  Out_channel.with_open_bin points_file (fun oc ->
      Out_channel.output_string oc "not a marshalled store at all");
  let s2 = Store.create () in
  Alcotest.(check int) "garbage file loads nothing" 0 (load_all dir cfg k s2);
  (* Saving over the corrupt file heals it. *)
  save_all dir cfg k ctx.Design.store;
  let s3 = Store.create () in
  Alcotest.(check bool) "healed after re-save" true (load_all dir cfg k s3 > 0);
  (* clear keeps foreign files. *)
  let foreign = Filename.concat cfg_dir "not-ours.txt" in
  Out_channel.with_open_text foreign (fun oc ->
      Out_channel.output_string oc "keep me\n");
  let removed, kept = Persist.clear ~cache_dir:dir in
  Alcotest.(check bool) "removed our files" true (removed >= 2);
  Alcotest.(check bool) "kept the foreign file" true (kept >= 1);
  Alcotest.(check bool) "foreign file survives" true (Sys.file_exists foreign);
  Sys.remove foreign;
  (try Unix.rmdir cfg_dir with Unix.Unix_error _ -> ());
  (try Unix.rmdir (Filename.concat dir "v1") with Unix.Unix_error _ -> ())

(* Merge-on-save: two stores written one after the other under the same
   configuration end up united on disk. *)
let test_merge_on_save () =
  let k = kernel "mm" in
  let dir = fresh_dir () in
  let cfg = config () in
  let ctx1 = Design.context ~profile k in
  ignore (Design.evaluate ctx1 (Design.base_config ctx1 [ ("i", 2) ]));
  save_all dir cfg k ctx1.Design.store;
  let ctx2 = Design.context ~profile k in
  ignore (Design.evaluate ctx2 (Design.base_config ctx2 [ ("i", 4) ]));
  save_all dir cfg k ctx2.Design.store;
  let s = Store.create () in
  let loaded = load_all dir cfg k s in
  rm_store dir;
  Alcotest.(check int) "both runs' points on disk" 2 loaded

(* ------------------------------------------------------------------ *)
(* Backend composition *)

(* The tier-1 gate is admissible: with and without it, the search
   selects the same design. *)
let test_backend_equivalence () =
  List.iter
    (fun name ->
      let k = kernel name in
      let gated = Design.context ~profile ~backend:Backend.default k in
      let plain = Design.context ~profile ~backend:Backend.full k in
      let rg = Search.run gated and rp = Search.run plain in
      Alcotest.(check bool)
        (name ^ ": gated and ungated searches select identically")
        true
        (Design.vector_equal rg.Search.selected.vector
           rp.Search.selected.vector);
      Alcotest.(check bool)
        (name ^ ": the gate only removes syntheses")
        true
        (gated.Design.store.stats.evaluations
         <= plain.Design.store.stats.evaluations))
    [ "fir"; "mm"; "jac" ]

(* The lowlevel backend degrades area and wall time, never cycles. *)
let test_lowlevel_backend () =
  let k = kernel "fir" in
  let full_ctx = Design.context ~profile ~backend:Backend.full k in
  let ll_ctx = Design.context ~profile ~backend:Backend.lowlevel k in
  let v = [ ("j", 4) ] in
  let pf = Design.evaluate full_ctx (Design.base_config full_ctx v)
  and pl = Design.evaluate ll_ctx (Design.base_config ll_ctx v) in
  Alcotest.(check int) "cycles unchanged by P&R" (Design.cycles pf) (Design.cycles pl);
  Alcotest.(check bool) "post-route area grows" true (Design.space pl >= Design.space pf);
  Alcotest.(check bool)
    "post-route time grows" true
    (pl.estimate.Hls.Estimate.time_ns
     >= pf.estimate.Hls.Estimate.time_ns)

let test_backend_names () =
  List.iter
    (fun name ->
      match Backend.of_string name with
      | Ok b -> Alcotest.(check string) name name (Backend.to_string b)
      | Error e -> Alcotest.fail e)
    Backend.known_names;
  Alcotest.(check bool)
    "unknown backend rejected" true
    (Result.is_error (Backend.of_string "bogus"))

(* ------------------------------------------------------------------ *)
(* Multi-kernel sessions *)

let tasks names =
  List.map (fun n -> { Dse.Driver.name = n; kernel = kernel n }) names

(* One batched session selects exactly what sequential per-kernel
   searches select, kernel for kernel. *)
let test_session_matches_sequential () =
  let names = [ "fir"; "mm"; "jac"; "pat"; "sobel" ] in
  let summary = Dse.Driver.run_many ~profile (tasks names) in
  List.iter2
    (fun name (o : Dse.Driver.outcome) ->
      let solo = Search.run (Design.context ~profile (kernel name)) in
      Alcotest.(check bool)
        (name ^ ": session selects like a sequential run")
        true
        (Design.vector_equal o.Dse.Driver.search.Search.selected.vector
           solo.Search.selected.vector))
    names summary.Dse.Driver.outcomes

(* Every file under [dir] with its inode and contents, in path order: a
   save replaces a file by renaming a new one into place, so a rewrite
   shows even when it writes the same bytes. *)
let rec snapshot dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then snapshot path
         else
           [
             ( path,
               ((Unix.stat path).Unix.st_ino,
                In_channel.with_open_bin path In_channel.input_all) );
           ])

let check_unchanged what before dir =
  let after = snapshot dir in
  Alcotest.(check (list string))
    (what ^ ": same store files") (List.map fst before) (List.map fst after);
  Alcotest.(check bool) (what ^ ": store files neither rewritten nor changed") true
    (before = after)

let session dir names =
  let s = Dse.Driver.run_many ~cache_dir:dir ~profile (tasks names) in
  (match Dse.Driver.save s with Ok () -> () | Error e -> Alcotest.fail e);
  s

(* Warm session over a persistent store: zero syntheses, identical
   selections, the stores report what they loaded, and a run that
   synthesizes nothing neither reads the schedule memo nor rewrites a
   store file. *)
let test_session_warm () =
  let names = [ "fir"; "mm" ] in
  let dir = fresh_dir () in
  let cold = session dir names in
  let before = snapshot dir in
  let warm = session dir names in
  check_unchanged "warm session" before dir;
  rm_store dir;
  Alcotest.(check bool)
    "cold session synthesized" true
    ((Dse.Driver.total cold).evaluations > 0);
  Alcotest.(check int)
    "warm session synthesized nothing" 0
    (Dse.Driver.total warm).evaluations;
  Alcotest.(check int)
    "warm session read no memo" 0
    (Hls.Schedule.memo_size warm.Dse.Driver.memo);
  List.iter2
    (fun (c : Dse.Driver.outcome) (w : Dse.Driver.outcome) ->
      Alcotest.(check bool)
        (c.Dse.Driver.task.Dse.Driver.name ^ ": warm selection identical")
        true
        (c.Dse.Driver.search.Search.selected
        = w.Dse.Driver.search.Search.selected);
      Alcotest.(check bool)
        (c.Dse.Driver.task.Dse.Driver.name ^ ": warm loaded points")
        true
        (w.Dse.Driver.loaded_points > 0))
    cold.Dse.Driver.outcomes warm.Dse.Driver.outcomes

(* A warm session that must synthesize (mm's points are gone, the memo
   still holds its block shapes) reads the memo, is served from it, and
   saves mm's points again. *)
let test_session_warm_reads_memo () =
  let dir = fresh_dir () in
  let cold = session dir [ "fir"; "mm" ] in
  let cfg_dir =
    Filename.concat (Filename.concat dir "v1")
      (Digest.to_hex (Digest.string cold.Dse.Driver.config))
  in
  Sys.remove
    (Filename.concat cfg_dir ("points-" ^ Persist.kernel_key (kernel "mm") ^ ".bin"));
  let warm = session dir [ "fir"; "mm" ] in
  let again = Store.create () in
  let reloaded =
    Persist.load_points ~cache_dir:dir ~config:cold.Dse.Driver.config
      ~kernel_key:(Persist.kernel_key (kernel "mm")) again
  in
  rm_store dir;
  match warm.Dse.Driver.outcomes with
  | [ fir; mm ] ->
      Alcotest.(check int) "fir served from its points" 0
        fir.Dse.Driver.stats.evaluations;
      Alcotest.(check bool) "mm synthesized" true (mm.Dse.Driver.stats.evaluations > 0);
      Alcotest.(check bool) "the memo was read" true
        (Hls.Schedule.memo_loaded warm.Dse.Driver.memo > 0);
      Alcotest.(check int) "every mm block shape came from the memo" 0
        (Hls.Schedule.memo_added warm.Dse.Driver.memo);
      Alcotest.(check bool) "mm hit the loaded memo" true
        (mm.Dse.Driver.stats.sched_memo_hits > 0);
      Alcotest.(check int) "mm's points saved again" (Store.size mm.Dse.Driver.ctx.Design.store)
        reloaded
  | _ -> Alcotest.fail "expected two outcomes"

(* [space --joint] against a warm store, as the CLI runs it: no
   synthesis, no memo read, no store file rewritten. *)
let test_joint_warm_unchanged () =
  let k = kernel "fir" in
  let dir = fresh_dir () in
  let cfg = config () in
  let run () =
    let store = Store.create () in
    ignore
      (Persist.load_points ~cache_dir:dir ~config:cfg
         ~kernel_key:(Persist.kernel_key k) store);
    Persist.load_memo ~cache_dir:dir ~config:cfg store.Store.sched_memo;
    let ctx = Design.context ~profile ~store k in
    let j =
      Space.sweep ~max_product:16 ~joint:Space.default_tile_candidates ctx
    in
    (match
       Persist.save ~cache_dir:dir ~config:cfg ~memo:store.Store.sched_memo
         [ (k, store) ]
     with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    (j, ctx)
  in
  let cold, _ = run () in
  let before = snapshot dir in
  let warm, ctx = run () in
  check_unchanged "warm joint sweep" before dir;
  rm_store dir;
  Alcotest.(check int) "warm joint sweep synthesized nothing" 0
    ctx.Design.store.stats.evaluations;
  Alcotest.(check int) "warm joint sweep read no memo" 0
    (Hls.Schedule.memo_size ctx.Design.store.Store.sched_memo);
  Alcotest.(check bool) "warm joint points identical" true
    (cold.Space.points = warm.Space.points)

(* The shared schedule memo carries across the kernels of a session:
   later kernels hit tri-schedules the earlier ones created. *)
let test_session_shares_memo () =
  (* fir twice under two names: the second must be served from the
     memo the first filled. *)
  let ts =
    [
      { Dse.Driver.name = "a"; kernel = kernel "fir" };
      { Dse.Driver.name = "b"; kernel = kernel "fir" };
    ]
  in
  let summary = Dse.Driver.run_many ~profile ts in
  match summary.Dse.Driver.outcomes with
  | [ first; second ] ->
      Alcotest.(check bool)
        "second kernel hits the shared memo" true
        (second.Dse.Driver.stats.sched_memo_hits
         > first.Dse.Driver.stats.sched_memo_hits)
  | _ -> Alcotest.fail "expected two outcomes"

(* ------------------------------------------------------------------ *)
(* Parallel sweeps: stats determinism and pool reuse *)

(* Unroll-only axes, and joint axes in the exhaustive regime: the
   points and the synthesis counters do not depend on [jobs]. *)
let test_sweep_stats_deterministic () =
  let k = kernel "mm" in
  List.iter
    (fun (axes, joint) ->
      let run jobs =
        let ctx = Design.context ~profile k in
        let sp =
          Space.sweep ~max_product:16 ?joint ~exhaustive_below:max_int ~jobs
            ctx
        in
        (sp, Design.stats_snapshot ctx)
      in
      let sp1, st1 = run 1 and sp4, st4 = run 4 in
      let check what = Alcotest.(check int) (axes ^ ": " ^ what) in
      Alcotest.(check bool)
        (axes ^ ": points identical across jobs")
        true
        (sp1.Space.points = sp4.Space.points);
      check "evaluations = lattice size (jobs=1)"
        (List.length sp1.Space.points)
        st1.evaluations;
      check "evaluations agree" st1.evaluations st4.evaluations;
      check "fronts agree" st1.fronts st4.fronts;
      check "reused agree" st1.reused st4.reused;
      check "cache hits agree" st1.cache_hits st4.cache_hits)
    [ ("unroll-only", None); ("joint", Some Space.default_tile_candidates) ]

let test_pool_reuse () =
  Engine.Pool.with_pool 3 @@ fun pool ->
  Alcotest.(check int) "pool size" 3 (Engine.Pool.size pool);
  (* Two sweeps over the same pool: identical to sequential sweeps. *)
  List.iter
    (fun name ->
      let k = kernel name in
      let pooled_ctx = Design.context ~profile k in
      let pooled = Space.sweep ~max_product:16 ~pool pooled_ctx in
      let plain_ctx = Design.context ~profile k in
      let plain = Space.sweep ~max_product:16 ~jobs:1 plain_ctx in
      Alcotest.(check bool)
        (name ^ ": pooled sweep identical") true
        (pooled.Space.points = plain.Space.points))
    [ "fir"; "mm" ]

let test_pool_exceptions () =
  Engine.Pool.with_pool 2 @@ fun pool ->
  let hits = Atomic.make 0 in
  (match
     Engine.Pool.run pool
       (List.init 8 (fun i () ->
            if i = 3 then failwith "boom" else Atomic.incr hits))
   with
  | () -> Alcotest.fail "expected the stashed exception to re-raise"
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg);
  (* The pool survives a failed batch. *)
  Engine.Pool.run pool [ (fun () -> Atomic.incr hits) ];
  Alcotest.(check int) "all non-failing tasks ran" 8 (Atomic.get hits)

(* A synthesis failure inside a parallel sweep without a caller's pool
   reaches the caller, and the sweep's own pool is shut down cleanly. *)
let test_sweep_exceptions () =
  let k = kernel "fir" in
  let failing =
    {
      Backend.full with
      synthesize = (fun ?fronts:_ _ _ _ -> failwith "synthesis failed");
    }
  in
  let sweep ctx = Space.sweep ~jobs:2 ~max_product:16 ctx in
  (match sweep (Design.context ~profile ~backend:failing k) with
  | _ -> Alcotest.fail "expected the synthesis failure to re-raise"
  | exception Failure msg ->
      Alcotest.(check string) "message" "synthesis failed" msg);
  let healthy = sweep (Design.context ~profile k) in
  Alcotest.(check bool) "a later sweep succeeds" true (healthy.Space.points <> [])

(* ------------------------------------------------------------------ *)
(* End-to-end CLI acceptance: cold vs warm over the paper's kernels *)

let build_path p = Filename.concat (Filename.dirname Sys.executable_name) p

let run_defacto args out =
  Sys.command
    (Filename.quote_command
       (build_path "../bin/defacto.exe")
       ~stdout:out ~stderr:Filename.null args)

let lines_of file = In_channel.with_open_text file In_channel.input_all
let grep_lines pre text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.starts_with ~prefix:pre l)

(* A second [defacto explore] over the paper's five kernels with
   --cache-dir performs zero full syntheses and reports selections
   bit-identical to the cold run. *)
let test_cli_cold_warm () =
  let dir = fresh_dir () in
  let args =
    [ "explore"; "-k"; "fir"; "-k"; "mm"; "-k"; "pat"; "-k"; "jac"; "-k";
      "sobel"; "--cache-dir"; dir; "-j"; "1" ]
  in
  let out_cold = Filename.temp_file "defacto-cold" ".out" in
  let out_warm = Filename.temp_file "defacto-warm" ".out" in
  Alcotest.(check int) "cold run exits 0" 0 (run_defacto args out_cold);
  Alcotest.(check int) "warm run exits 0" 0 (run_defacto args out_warm);
  let cold = lines_of out_cold and warm = lines_of out_warm in
  Sys.remove out_cold;
  Sys.remove out_warm;
  rm_store dir;
  let selections t = grep_lines "selected:" t in
  Alcotest.(check int) "five selections" 5 (List.length (selections cold));
  Alcotest.(check (list string))
    "selections bit-identical cold vs warm" (selections cold) (selections warm);
  (match grep_lines "session:" warm with
  | warm_session :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "warm session is all cache (%s)" warm_session)
        true
        (String.starts_with ~prefix:"session: 0 synthesized" warm_session)
  | [] -> Alcotest.fail "no session line in warm output");
  match grep_lines "session:" cold with
  | cold_session :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "cold session synthesized (%s)" cold_session)
        false
        (String.starts_with ~prefix:"session: 0 synthesized" cold_session)
  | [] -> Alcotest.fail "no session line in cold output"

let test_cli_cache_subcommand () =
  let dir = fresh_dir () in
  let out = Filename.temp_file "defacto-cache" ".out" in
  Alcotest.(check int)
    "explore with store exits 0" 0
    (run_defacto [ "explore"; "-k"; "fir"; "--cache-dir"; dir; "-j"; "1" ] out);
  Alcotest.(check int)
    "cache stats exits 0" 0
    (run_defacto [ "cache"; "stats"; "--cache-dir"; dir ] out);
  let stats_out = lines_of out in
  Alcotest.(check bool)
    "stats mentions a configuration" true
    (List.exists
       (fun l ->
         String.length l > 0
         && String.starts_with ~prefix:(dir ^ ": 1 configuration") l)
       (String.split_on_char '\n' stats_out));
  Alcotest.(check int)
    "cache clear exits 0" 0
    (run_defacto [ "cache"; "clear"; "--cache-dir"; dir ] out);
  Alcotest.(check int)
    "stats after clear exits 0" 0
    (run_defacto [ "cache"; "stats"; "--cache-dir"; dir ] out);
  Sys.remove out;
  Alcotest.(check bool)
    "store directory gone" false
    (Sys.file_exists (Filename.concat dir "v1"))

(* Bad input ends in a one-line diagnostic on stderr and exit 1, never
   an uncaught exception; removed options are unknown to the parser. *)
let run_capture args =
  let out = Filename.temp_file "defacto-cli" ".out" in
  let err = Filename.temp_file "defacto-cli" ".err" in
  let code =
    Sys.command
      (Filename.quote_command
         (build_path "../bin/defacto.exe")
         ~stdout:out ~stderr:err args)
  in
  let o = lines_of out and e = lines_of err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let check_rejected args diagnostic =
  let what = String.concat " " args in
  let code, _, err = run_capture args in
  Alcotest.(check int) (what ^ ": exit code") 1 code;
  Alcotest.(check string) (what ^ ": diagnostic") (diagnostic ^ "\n") err

(* [explore --joint --cache-dir] saves the joint sweep's points with the
   search's, so a second run synthesizes nothing and rewrites no file. *)
let test_cli_joint_warm () =
  let dir = fresh_dir () in
  let args = [ "explore"; "-k"; "fir"; "--joint"; "--cache-dir"; dir ] in
  let code, cold, _ = run_capture args in
  Alcotest.(check int) "cold run exits 0" 0 code;
  let before = snapshot dir in
  let code, warm, _ = run_capture args in
  Alcotest.(check int) "warm run exits 0" 0 code;
  check_unchanged "warm joint explore" before dir;
  let _, stats, _ = run_capture [ "cache"; "stats"; "--cache-dir"; dir ] in
  rm_store dir;
  let joint t = grep_lines "joint selection:" t @ grep_lines "# joint space:" t in
  Alcotest.(check (list string)) "joint results identical" (joint cold) (joint warm);
  (match grep_lines "session:" warm with
  | l :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "warm joint session is all cache (%s)" l)
        true
        (String.starts_with ~prefix:"session: 0 synthesized" l)
  | [] -> Alcotest.fail "no session line in warm output");
  let points =
    List.find_map
      (fun l -> Scanf.sscanf_opt l " %_s %d point(s)" Fun.id)
      (String.split_on_char '\n' stats)
  in
  Alcotest.(check bool)
    (Printf.sprintf "the store holds the joint points (%s)" stats)
    true
    (Option.fold ~none:false ~some:(fun n -> n > 100) points)

(* A --cache-dir that cannot be created costs only the store: results
   are printed, then a one-line diagnostic and exit 1. *)
let test_cli_unwritable_cache_dir () =
  let file = Filename.temp_file "defacto-not-a-dir" "" in
  List.iter
    (fun (args, result) ->
      let what = String.concat " " args in
      let code, out, err = run_capture (args @ [ "--cache-dir"; file ]) in
      Alcotest.(check int) (what ^ ": exit code") 1 code;
      Alcotest.(check bool) (what ^ ": results printed") true
        (grep_lines result out <> []);
      Alcotest.(check bool)
        (Printf.sprintf "%s: diagnostic (%s)" what err)
        true
        (String.starts_with
           ~prefix:(Printf.sprintf "defacto: cannot save the store under %s: " file)
           err
        && List.length (String.split_on_char '\n' (String.trim err)) = 1))
    [
      ([ "explore"; "-k"; "fir" ], "selected:");
      ([ "space"; "-k"; "fir"; "--max-product"; "8" ], "# best fitting:");
      ([ "space"; "-k"; "fir"; "--joint"; "--max-product"; "8" ], "# best fitting:");
    ];
  Sys.remove file

let test_cli_memories () =
  let diagnostic = "defacto: --memories must be at least 1" in
  List.iter
    (fun args -> check_rejected args diagnostic)
    [
      [ "space"; "-k"; "fir"; "--memories"; "0" ];
      [ "explore"; "-k"; "fir"; "--memories"; "0"; "-j"; "1" ];
      [ "vhdl"; "-k"; "fir"; "--memories"; "0" ];
      [ "estimate"; "-k"; "fir"; "--memories=-1" ];
      [ "simulate"; "-k"; "fir"; "--memories"; "0" ];
    ]

let test_cli_max_product () =
  List.iter
    (fun args -> check_rejected args "defacto: --max-product must be at least 1")
    [
      [ "space"; "-k"; "fir"; "--max-product"; "0" ];
      [ "space"; "-k"; "fir"; "--joint"; "--max-product"; "0" ];
    ]

let test_cli_jobs () =
  List.iter
    (fun args -> check_rejected args "defacto: --jobs must be at least 1")
    [
      [ "space"; "-k"; "fir"; "--jobs"; "0" ];
      [ "space"; "-k"; "fir"; "--jobs=-3" ];
      [ "space"; "-k"; "fir"; "--joint"; "-j"; "0" ];
    ]

let test_cli_capacity () =
  List.iter
    (fun args -> check_rejected args "defacto: --capacity must be at least 1")
    [
      [ "explore"; "-k"; "fir"; "--capacity=-5" ];
      [ "explore"; "-k"; "fir"; "--capacity"; "0"; "--report"; "-" ];
      [ "space"; "-k"; "fir"; "--capacity"; "0" ];
      [ "space"; "-k"; "fir"; "--joint"; "--capacity=-1" ];
    ]

let test_cli_unroll_components () =
  List.iter
    (fun (cmd, vec) ->
      check_rejected [ cmd; "-k"; "fir"; "-u"; vec ]
        "defacto: unroll component \"q\" names no loop of fir (loops: j, i)")
    [ ("estimate", "q=2"); ("transform", "j=2,q=4"); ("vhdl", "q=2"); ("simulate", "q=2") ];
  List.iter
    (fun (cmd, vec) ->
      check_rejected [ cmd; "-k"; "fir"; "-u"; vec ]
        "defacto: unroll vector names loop \"j\" more than once")
    [
      ("estimate", "j=2,j=4");
      ("estimate", "j=4,j=2");
      ("simulate", "j=2,i=2,j=2");
      ("transform", "j=4,j=2");
    ];
  let code, out, _ = run_capture [ "estimate"; "-k"; "fir"; "-u"; "j=2" ] in
  Alcotest.(check int) "a valid vector still estimates" 0 code;
  Alcotest.(check bool) "the vector is applied" true
    (String.starts_with ~prefix:"(j=2, i=1)" out)

let test_cli_kernel_help () =
  let code, help, _ = run_capture [ "estimate"; "--help=plain" ] in
  Alcotest.(check int) "help exits 0" 0 code;
  List.iter
    (fun name ->
      let rec mem i =
        i + String.length name <= String.length help
        && (String.sub help i (String.length name) = name || mem (i + 1))
      in
      Alcotest.(check bool) ("-k help names " ^ name) true (mem 0))
    (Kernels.names @ Gallery.names)

(* A kernel written to a temporary [.c] file. *)
let with_source text f =
  let path = Filename.temp_file "defacto-kernel" ".c" in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* A kernel that faults at run time ends in a one-line diagnostic and
   the error exit, never an uncaught exception. *)
let test_cli_simulate_faults () =
  List.iter
    (fun (what, text) ->
      with_source text @@ fun path ->
      let code, _, err = run_capture [ "simulate"; "-f"; path; "-u"; "i=1" ] in
      Alcotest.(check int) (what ^ ": exit code") 2 code;
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: diagnostic (%s)" what err)
        true
        (String.starts_with ~prefix:("defacto: " ^ path ^ ": ") err
        && List.length (String.split_on_char '\n' (String.trim err)) = 1
        && not (contains err "internal error")))
    [
      ( "out-of-bounds subscript",
        "signed char img[66];\n\
         short hist[256];\n\
         for (i = 0; i < 64; i++)\n\
        \  hist[img[i + 2]] = hist[img[i + 2]] + 1;\n" );
      ( "division by zero",
        "int a[16];\nfor (i = 0; i < 16; i++)\n  a[i] = a[i / 0];\n" );
    ]

(* Jamming [i] reorders the scalar recurrence on [s]: the sweep and the
   search drop those vectors, and the designs they select compute what
   the source does. *)
let test_cli_space_skips_scalar_jam () =
  with_source
    "int a[4][4];\n\
     int out[1];\n\
     int s;\n\
     s = 0;\n\
     for (i = 0; i < 4; i++)\n\
    \  for (j = 0; j < 4; j++)\n\
    \    s = s * 2 + a[i][j];\n\
     out[0] = s;\n"
  @@ fun path ->
  (* The design a command's output line starting with [prefix] names,
     as a [-u] argument. *)
  let design prefix out =
    match grep_lines prefix out with
    | l :: _ ->
        let i = String.index l '(' and j = String.index l ')' in
        String.concat ""
          (String.split_on_char ' ' (String.sub l (i + 1) (j - i - 1)))
    | [] -> Alcotest.failf "no %S line" prefix
  in
  let simulates_identical what u =
    let code, sim, _ = run_capture [ "simulate"; "-f"; path; "-u"; u ] in
    Alcotest.(check int) (what ^ ": simulate " ^ u ^ " exits 0") 0 code;
    Alcotest.(check (list string))
      (what ^ ": simulate " ^ u)
      [ "datapath vs reference interpreter: IDENTICAL" ]
      (grep_lines "datapath vs reference interpreter:" sim)
  in
  let code, out, _ = run_capture [ "space"; "-f"; path ] in
  Alcotest.(check int) "space exits 0" 0 code;
  Alcotest.(check (list string)) "(i=2, j=1) not listed" []
    (grep_lines "(i=2, j=1)" out);
  simulates_identical "space" (design "# best fitting: (" out);
  (* The search passes the same gate: no step visits a jam of i. *)
  let code, out, _ = run_capture [ "explore"; "-f"; path ] in
  Alcotest.(check int) "explore exits 0" 0 code;
  Alcotest.(check (list string)) "explore visits no jam of i" []
    (List.filter
       (fun l -> not (String.starts_with ~prefix:"  (i=1," l))
       (grep_lines "  (" out));
  simulates_identical "explore" (design "selected: (" out)

let test_cli_removed_options () =
  let code, _, _ = run_capture [ "space"; "-k"; "fir"; "--prune" ] in
  Alcotest.(check int) "space --prune: unknown option" 124 code

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ( "persist",
        [
          Alcotest.test_case "round-trip fir" `Quick test_roundtrip_fir;
          test_roundtrip_random;
          Alcotest.test_case "config invalidation" `Quick test_invalidation;
          Alcotest.test_case "corruption tolerance + clear" `Quick
            test_corruption_and_clear;
          Alcotest.test_case "merge on save" `Quick test_merge_on_save;
        ] );
      ( "backend",
        [
          Alcotest.test_case "tier-1 gate is selection-neutral" `Quick
            test_backend_equivalence;
          Alcotest.test_case "lowlevel degradation" `Quick test_lowlevel_backend;
          Alcotest.test_case "names round-trip" `Quick test_backend_names;
        ] );
      ( "session",
        [
          Alcotest.test_case "matches sequential searches" `Quick
            test_session_matches_sequential;
          Alcotest.test_case "warm run is all cache" `Quick test_session_warm;
          Alcotest.test_case "warm run that synthesizes reads the memo" `Quick
            test_session_warm_reads_memo;
          Alcotest.test_case "warm joint sweep rewrites nothing" `Quick
            test_joint_warm_unchanged;
          Alcotest.test_case "kernels share the schedule memo" `Quick
            test_session_shares_memo;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "sweep stats deterministic" `Quick
            test_sweep_stats_deterministic;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "pool exception propagation" `Quick
            test_pool_exceptions;
          Alcotest.test_case "sweep exception propagation" `Quick
            test_sweep_exceptions;
        ] );
      ( "cli",
        [
          Alcotest.test_case "cold vs warm acceptance" `Quick test_cli_cold_warm;
          Alcotest.test_case "cache subcommand" `Quick test_cli_cache_subcommand;
          Alcotest.test_case "--memories below 1 rejected" `Quick test_cli_memories;
          Alcotest.test_case "--max-product below 1 rejected" `Quick
            test_cli_max_product;
          Alcotest.test_case "--jobs below 1 rejected" `Quick test_cli_jobs;
          Alcotest.test_case "--capacity below 1 rejected" `Quick
            test_cli_capacity;
          Alcotest.test_case "-u components must name loops" `Quick
            test_cli_unroll_components;
          Alcotest.test_case "-k help lists every kernel" `Quick test_cli_kernel_help;
          Alcotest.test_case "removed --prune is unknown" `Quick
            test_cli_removed_options;
          Alcotest.test_case "warm --joint explore is all cache" `Quick
            test_cli_joint_warm;
          Alcotest.test_case "unwritable --cache-dir" `Quick
            test_cli_unwritable_cache_dir;
          Alcotest.test_case "simulate faults exit 2" `Quick
            test_cli_simulate_faults;
          Alcotest.test_case "space skips a scalar-reordering jam" `Quick
            test_cli_space_skips_scalar_jam;
        ] );
    ]
