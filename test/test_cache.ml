(** Evaluation-cache, statistics and parallel-sweep tests: cached and
    uncached evaluation agree, the search memo keys on normalized
    vectors, the parallel sweep matches the sequential one
    point-for-point, and the stats counters are consistent. *)

module Design = Dse.Design
module Search = Dse.Search
module Space = Dse.Space

let ctx ?(pipelined = true) name =
  let k = Option.get (Kernels.find name) in
  let profile = Hls.Estimate.default_profile ~pipelined () in
  Design.context ~profile k

let estimates_equal (a : Design.point) (b : Design.point) =
  Design.cycles a = Design.cycles b
  && Design.space a = Design.space b
  && Design.balance a = Design.balance b

(* ------------------------------------------------------------------ *)
(* Cached and uncached evaluation agree *)

let vector_gen spine =
  let open QCheck in
  let factor = Gen.int_range 1 20 in
  Gen.map
    (fun us ->
      List.concat
        (List.map2 (fun i u -> if u = 0 then [] else [ (i, u) ]) spine us))
    (Gen.flatten_l
       (List.map (fun _ -> Gen.oneof [ Gen.return 0; factor ]) spine))

let prop_cached_uncached_agree =
  let c = ctx "mm" in
  let spine = List.map (fun (l : Ir.Ast.loop) -> l.Ir.Ast.index) c.Design.env.spine in
  QCheck.Test.make ~count:40 ~name:"cached evaluate = uncached evaluate"
    QCheck.(
      make ~print:(Format.asprintf "%a" Design.pp_vector) (vector_gen spine))
    (fun v ->
      let config = Design.base_config c v in
      estimates_equal
        (Design.evaluate c config)
        (Engine.Backend.synthesize c.Design.env c.Design.store
           (Design.normalize_config c config)))

let test_memo_normalizes () =
  (* Regression: a partial vector and its spine-normalized form denote
     the same design and must share one synthesis run. *)
  let c = ctx "fir" in
  let p1 = Design.evaluate c (Design.base_config c [ ("j", 4) ]) in
  let p2 = Design.evaluate c (Design.base_config c [ ("j", 4); ("i", 1) ]) in
  Alcotest.(check bool) "same point" true (estimates_equal p1 p2);
  Alcotest.(check int) "one synthesis" 1 c.Design.store.stats.evaluations;
  Alcotest.(check int) "one cache hit" 1 c.Design.store.stats.cache_hits;
  Alcotest.(check int) "one memo entry" 1 (Design.cache_size c)

(* ------------------------------------------------------------------ *)
(* Search statistics *)

let test_search_stats_consistent () =
  List.iter
    (fun name ->
      let c = ctx name in
      let r = Search.run c in
      Alcotest.(check int)
        (name ^ ": evals = distinct designs in the trace")
        (Search.designs_evaluated r)
        r.Search.stats.evaluations;
      Alcotest.(check int)
        (name ^ ": evals = designs memoized")
        (Design.cache_size c) r.Search.stats.evaluations)
    Kernels.names

let test_search_reuses_cache () =
  let c = ctx "pat" in
  let r1 = Search.run c in
  let r2 = Search.run c in
  Alcotest.(check int) "second run synthesizes nothing" 0
    r2.Search.stats.evaluations;
  Alcotest.(check bool) "same selection" true
    (r1.Search.selected.vector = r2.Search.selected.vector)

let test_sweep_reuses_search_points () =
  (* The bench `frac` pattern: a sweep after a search on the same
     context must revisit the searched points for free. *)
  let c = ctx "sobel" in
  let r = Search.run c in
  let before = Design.stats_snapshot c in
  let sp = Space.sweep ~max_product:256 ~jobs:1 c in
  let d = Engine.Store.stats_diff ~before ~after:(Design.stats_snapshot c) in
  Alcotest.(check bool) "some points served from the cache" true
    (d.cache_hits >= Search.designs_evaluated r);
  Alcotest.(check int) "every lattice point accounted for"
    (List.length sp.Space.points)
    (d.evaluations + d.cache_hits)

(* ------------------------------------------------------------------ *)
(* Lattice pruning and the parallel sweep *)

let prop_pruned_lattice_matches_filter =
  let c = ctx "mm" in
  let eligible = [ "i"; "j"; "k" ] in
  QCheck.Test.make ~count:50 ~name:"pruned enumeration = filter after"
    QCheck.(int_range 1 64)
    (fun max_product ->
      let pruned = Dse.Util.divisor_vectors ~max_product c ~eligible in
      let filtered =
        List.filter
          (fun v -> Design.product v <= max_product)
          (Dse.Util.divisor_vectors c ~eligible)
      in
      pruned = filtered)

let prop_parallel_sweep_matches_sequential =
  QCheck.Test.make ~count:6 ~name:"parallel sweep = sequential sweep"
    QCheck.(
      pair
        (oneofl [ "fir"; "mm"; "pat"; "jac"; "sobel" ])
        (int_range 4 128))
    (fun (name, max_product) ->
      let seq = Space.sweep ~max_product ~jobs:1 (ctx name) in
      let par = Space.sweep ~max_product ~jobs:3 (ctx name) in
      List.length seq.Space.points = List.length par.Space.points
      && List.for_all2
           (fun (a : Design.point) (b : Design.point) ->
             a.vector = b.vector && estimates_equal a b)
           seq.Space.points par.Space.points)

let test_parallel_sweep_merges_stats () =
  let c = ctx "pat" in
  let sp = Space.sweep ~jobs:2 c in
  Alcotest.(check int) "all points synthesized once"
    (List.length sp.Space.points)
    c.Design.store.stats.evaluations;
  Alcotest.(check int) "forks merged into the shared cache"
    (List.length sp.Space.points)
    (Design.cache_size c)

let qtest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "cache"
    [
      ( "evaluation-cache",
        [
          qtest prop_cached_uncached_agree;
          Alcotest.test_case "memo keys on normalized vectors" `Quick
            test_memo_normalizes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "search evals = cache misses" `Quick
            test_search_stats_consistent;
          Alcotest.test_case "second search is free" `Quick
            test_search_reuses_cache;
          Alcotest.test_case "sweep reuses search points" `Quick
            test_sweep_reuses_search_points;
        ] );
      ( "sweep",
        [
          qtest prop_pruned_lattice_matches_filter;
          qtest prop_parallel_sweep_matches_sequential;
          Alcotest.test_case "parallel sweep merges caches" `Quick
            test_parallel_sweep_merges_stats;
        ] );
    ]
