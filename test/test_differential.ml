(* Differential property harness: every distance backend in the repo
   must agree, query by query, with BFS ground truth — on random sparse
   graphs, on disconnected graphs (infinity handling), on weighted
   graphs, and on the paper's G_{b,l} degree-3 gadget instances. The
   packed Flat_hub store, the zero-copy Mmap_hub view of the same
   bytes, and the compressed Compact_hub store (heap, mmap and cached,
   with block sizes small enough to force the skip table) are run
   alongside the assoc Hub_label they were frozen from, so no layout
   optimisation can silently diverge from the structures it
   replaced. All four kinds also run through the serving handle
   (Store.t behind Resilient_oracle.store_primary), cached and
   uncached. *)

open Repro_graph
open Repro_hub
open Repro_core
open Repro_serve

let inf_budget = max_int

(* Every store kind as the serving layers see it: a Store.t handle,
   each packed kind both uncached and with a fresh 32-slot cache. *)
let store_handles stores =
  List.concat_map
    (fun store ->
      let name = "store-" ^ Store.kind_name store in
      match store with
      | Store.Assoc _ -> [ (name, store) ]
      | _ ->
          [ (name, store);
            (name ^ "-cached", Store.with_cache ~cache_slots:32 store) ])
    stores

(* The unweighted backend battery over a graph: (name, query), plus
   the store handles. The mmap store rides through an actual temp file
   round trip (pack → map → unlink), so the zero-copy byte path is
   exercised on every generated graph. *)
let unweighted_backends g =
  let pll = Pll.build g in
  let flat = Flat_hub.of_labels pll in
  let flat_cached = Flat_hub.of_labels ~cache_slots:32 pll in
  let mm = Test_util.mmap_of_flat ~deep:true flat in
  let mm_cached = Test_util.mmap_of_flat ~cache_slots:32 flat in
  (* a tiny block size forces multi-block regions (and therefore the
     skip table) even on these small generated graphs *)
  let compact = Test_util.compact_of_flat ~deep:true ~block:2 flat in
  let compact_mm = Test_util.compact_map_of_flat ~deep:true flat in
  let compact_cached = Test_util.compact_of_flat ~cache_slots:32 flat in
  let hhl = Canonical_hhl.build ~order:(Order.by_degree g) g in
  let w = Wgraph.of_unweighted g in
  let handles =
    store_handles
      [ Store.Assoc pll; Store.Flat flat; Store.Mmap mm; Store.Compact compact ]
  in
  ( List.map
      (fun (name, store) ->
        ( name,
          Repro_obs.Backend.query (Resilient_oracle.store_primary store) ))
      handles
    @ [
        ("hub-assoc", Hub_label.query pll);
        ("flat", Flat_hub.query flat);
        ("flat-cached", Flat_hub.query flat_cached);
        ("mmap", Mmap_hub.query mm);
        ("mmap-cached", Mmap_hub.query mm_cached);
        ("compact", Compact_hub.query compact);
        ("compact-mmap", Compact_hub.query compact_mm);
        ("compact-cached", Compact_hub.query compact_cached);
        ("canonical-hhl", Hub_label.query hhl);
        ("dijkstra-unit", fun u v -> (Dijkstra.distances w u).(v));
        ( "bidirectional",
          fun u v ->
            match Budget_search.bidirectional g ~budget:inf_budget u v with
            | Some d -> d
            | None -> Alcotest.fail "unbudgeted bidirectional search gave up" );
      ],
    handles )

(* Through the handle, a store's batch and the per-pair primary loop
   agree on every answer and — on a fresh cached store — on the cache's
   hit/miss totals, so batching never changes what the cache reports. *)
let batch_agrees_with_loop pairs (name, store) =
  let fresh () =
    match Store.cache_stats store with
    | Some _ -> Store.with_cache ~cache_slots:32 store
    | None -> store
  in
  let batch = fresh () and loop = fresh () in
  let q = Repro_obs.Backend.query (Resilient_oracle.store_primary loop) in
  if Store.query_many batch pairs <> Array.map (fun (u, v) -> q u v) pairs
  then Alcotest.failf "%s: query_many <> per-pair loop" name;
  if Store.cache_stats batch <> Store.cache_stats loop then
    Alcotest.failf "%s: cache_stats differ between batch and loop" name;
  true

(* Check every backend against BFS truth on the given pairs; queries
   each pair twice through the cached flat store via the repetition in
   [pairs] (query_pairs includes repeats and self-pairs). *)
let agree_on g pairs =
  let backends, handles = unweighted_backends g in
  List.for_all (batch_agrees_with_loop pairs) handles
  && Array.for_all
    (fun (u, v) ->
      let truth = (Traversal.bfs g u).(v) in
      List.for_all
        (fun (name, q) ->
          let d = q u v in
          if d <> truth then
            Alcotest.failf "%s: d(%d,%d) = %d, BFS says %d" name u v d truth;
          true)
        backends)
    pairs

let diff_connected =
  Test_util.qcheck "all backends = BFS on random connected graphs" ~count:100
    (Gen.connected_gen ~max_n:28 ~max_deg:3 ())
    (fun ((_, _, seed) as params) ->
      let g = Gen.build_connected params in
      agree_on g (Gen.query_pairs ~seed ~n:(Graph.n g) 10))

let diff_disconnected =
  Test_util.qcheck
    "all backends agree on disconnected graphs (infinity included)" ~count:60
    Gen.small_graph_gen
    (fun ((_, _, seed) as params) ->
      let g = Gen.build_graph params in
      agree_on g (Gen.query_pairs ~seed ~n:(Graph.n g) 10))

let diff_weighted =
  Test_util.qcheck "weighted: flat = assoc = Dijkstra" ~count:40
    (Gen.weighted_gen ~max_n:24 ~max_deg:3 ())
    (fun (((_, _, seed) as params), wseed) ->
      let w = Gen.build_weighted (params, wseed) in
      let labels = Pll.build_w w in
      let flat = Flat_hub.of_labels labels in
      let mm = Test_util.mmap_of_flat ~deep:true flat in
      let compact = Test_util.compact_of_flat ~deep:true ~block:3 flat in
      let n = Wgraph.n w in
      Array.for_all
        (fun (u, v) ->
          let truth = (Dijkstra.distances w u).(v) in
          Hub_label.query labels u v = truth
          && Flat_hub.query flat u v = truth
          && Mmap_hub.query mm u v = truth
          && Compact_hub.query compact u v = truth)
        (Gen.query_pairs ~seed ~n 10))

(* G_{2,1} is deterministic; build its backends once and vary only the
   sampled query pairs. 1516 vertices, max degree 3 — big enough to
   exercise long unit paths through the gadget trees, small enough for
   per-pair BFS truth. Canonical HHL is cubic-ish, so the gadget runs
   the remaining backends. *)
let gadget_fixture =
  lazy
    (let grid = Grid_graph.create ~b:2 ~l:1 () in
     let g = (Degree_gadget.build grid).Degree_gadget.graph in
     let pll = Pll.build g in
     let flat = Flat_hub.of_labels pll in
     let mm = Test_util.mmap_of_flat ~deep:true flat in
     let compact = Test_util.compact_map_of_flat ~deep:true flat in
     (g, pll, flat, mm, compact))

let diff_gadget =
  Test_util.qcheck
    "G_{2,1} gadget: compact = mmap = flat = assoc = BFS = bidirectional"
    ~count:8
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let g, pll, flat, mm, compact = Lazy.force gadget_fixture in
      let n = Graph.n g in
      Array.for_all
        (fun (u, v) ->
          let truth = (Traversal.bfs g u).(v) in
          Hub_label.query pll u v = truth
          && Flat_hub.query flat u v = truth
          && Mmap_hub.query mm u v = truth
          && Compact_hub.query compact u v = truth
          &&
          match Budget_search.bidirectional g ~budget:inf_budget u v with
          | Some d -> d = truth
          | None -> false)
        (Gen.query_pairs ~seed ~n 6))

(* Job-count invariance: the compact store's batched queries and
   aggregate ops must be identical across worker counts and equal to
   the flat store's answers (which the batteries above tie to BFS). *)
let diff_compact_jobs =
  Test_util.qcheck "compact query_many/ops invariant across job counts"
    ~count:12
    (Gen.connected_gen ~max_n:20 ~max_deg:4 ())
    (fun ((_, _, seed) as params) ->
      let g = Gen.build_connected params in
      let flat = Flat_hub.of_labels (Pll.build g) in
      let compact = Test_util.compact_of_flat ~deep:true ~block:2 flat in
      let n = Graph.n g in
      let pairs = Gen.query_pairs ~seed ~n 12 in
      let expected = Flat_hub.query_many flat pairs in
      let reqs =
        Repro_obs.Ops.
          [
            Batch pairs;
            One_to_many
              { source = 0; targets = Array.init n (fun i -> n - 1 - i) };
            Top_k_nearest { source = seed mod n; k = 3 };
            Eccentricity (seed mod n);
            Farthest 0;
            Diameter_radius;
          ]
      in
      let flat_ops = Flat_hub.ops flat in
      let module F = (val flat_ops : Repro_obs.Backend.S_ops) in
      List.for_all
        (fun jobs ->
          Repro_par.Pool.with_pool ~jobs (fun pool ->
              Compact_hub.query_many ~pool compact pairs = expected
              &&
              let module C =
                (val Compact_hub.ops ~pool compact : Repro_obs.Backend.S_ops)
              in
              List.for_all
                (fun req ->
                  Repro_obs.Ops.response_to_string (C.op req)
                  = Repro_obs.Ops.response_to_string (F.op req))
                reqs))
        [ 1; 2; 4 ])

(* The TZ oracle is approximate by design: differential bounds instead
   of equality — never below the truth, never above 3x. *)
let diff_tz_stretch =
  Test_util.qcheck "TZ oracle stays within [truth, 3*truth]" ~count:20
    (Gen.connected_gen ~max_n:28 ~max_deg:3 ())
    (fun ((_, _, seed) as params) ->
      let g = Gen.build_connected params in
      let tz = Tz_oracle.build ~rng:(Random.State.make [| seed |]) g in
      Array.for_all
        (fun (u, v) ->
          let truth = (Traversal.bfs g u).(v) in
          let est = Tz_oracle.query tz u v in
          est >= truth && est <= 3 * truth)
        (Gen.query_pairs ~seed ~n:(Graph.n g) 10))

let suite =
  [
    diff_connected;
    diff_disconnected;
    diff_weighted;
    diff_gadget;
    diff_compact_jobs;
    diff_tz_stretch;
  ]
