(* Benchmark harness.

   Part 1 regenerates every paper artifact (the experiment reports
   E-FIG1 .. E-BASE of DESIGN.md — this theory paper has no numbered
   tables, so experiments are indexed by theorem/figure).

   Part 2 runs Bechamel micro-benchmarks over the core operations, one
   Test.make per operation, grouped in a single executable as required
   by the project layout.

   Part 3 times the packed flat-array hub store against the assoc
   labeling on the same query stream and writes the summary to
   BENCH_flat_query.json (see docs/PERFORMANCE.md).

   `--smoke` (the @bench-smoke dune alias) skips the experiments and
   Bechamel, rebuilds every fixture at tiny sizes and executes each
   benchmark body once, so the benchmark code cannot bit-rot unbuilt. *)

open Bechamel
open Toolkit
open Repro_graph
open Repro_hub
open Repro_core

(* One seed feeds every fixture RNG; `--seed N` overrides it so reruns
   can vary the workload while staying reproducible (the seed is
   recorded in every JSON artifact that depends on it). *)
let seed = ref 20190721

let () =
  Array.iteri
    (fun i a ->
      if a = "--seed" && i + 1 < Array.length Sys.argv then
        match int_of_string_opt Sys.argv.(i + 1) with
        | Some s -> seed := s
        | None ->
            prerr_endline "bench: --seed expects an integer";
            exit 124)
    Sys.argv

let rng () = Random.State.make [| !seed |]

(* ------------------------------------------------------------------ *)
(* Fixture sizes: one record, two profiles.                            *)

type sizes = {
  grid_side : int;
  sparse_n : int;
  sparse_m : int;
  path_n : int;
  pairs : int;
  bip_side : int;
  bip_m : int;
  tree_depth : int;
  behrend_n : int;
  rs_c : int;
  rs_d : int;
  grid_b : int;
  grid_l : int;
}

let full_sizes =
  {
    grid_side = 16;
    sparse_n = 2000;
    sparse_m = 4000;
    path_n = 128;
    pairs = 1024;
    bip_side = 200;
    bip_m = 600;
    tree_depth = 11;
    behrend_n = 10_000;
    rs_c = 4;
    rs_d = 4;
    grid_b = 2;
    grid_l = 2;
  }

let smoke_sizes =
  {
    grid_side = 4;
    sparse_n = 60;
    sparse_m = 120;
    path_n = 32;
    pairs = 64;
    bip_side = 20;
    bip_m = 40;
    tree_depth = 4;
    behrend_n = 200;
    rs_c = 2;
    rs_d = 2;
    grid_b = 2;
    grid_l = 1;
  }

(* Micro-benchmark entries: (name, body), fixtures built once outside
   the timed region. *)
let make_entries (z : sizes) =
  let grid = Generators.grid ~rows:z.grid_side ~cols:z.grid_side in
  let sparse = Generators.random_connected (rng ()) ~n:z.sparse_n ~m:z.sparse_m in
  let wsparse = Wgraph.of_unweighted sparse in
  let path = Generators.path z.path_n in
  let labels_grid = Pll.build grid in
  let labels_sparse = Pll.build sparse in
  let flat_sparse = Flat_hub.of_labels labels_sparse in
  let flat_cached =
    Flat_hub.of_labels ~cache_slots:(4 * z.pairs) labels_sparse
  in
  let query_pairs =
    let r = rng () in
    Array.init z.pairs (fun _ ->
        (Random.State.int r z.sparse_n, Random.State.int r z.sparse_n))
  in
  let bipartite_instance =
    let r = rng () in
    Repro_matching.Bipartite.create ~left:z.bip_side ~right:z.bip_side
      (Generators.random_bipartite r ~left:z.bip_side ~right:z.bip_side
         ~m:z.bip_m)
  in
  let tree = Generators.balanced_binary_tree ~depth:z.tree_depth in
  (* Serving-layer fixtures: the direct hub path ("pll-query" below) vs.
     the resilient wrapper in its regimes — trusting primary (assoc and
     flat), spot-checked primary, and the pure fallback chain (no
     labels, so every query runs the budgeted bidirectional search). *)
  let serve_primary =
    Repro_serve.Resilient_oracle.create ~spot_check_every:0
      ~labels:labels_sparse sparse
  in
  let serve_flat =
    Repro_serve.Resilient_oracle.create ~spot_check_every:0
      ~primary:
        (Repro_serve.Resilient_oracle.store_primary
           (Repro_hub.Store.Flat flat_sparse))
      sparse
  in
  let serve_checked =
    Repro_serve.Resilient_oracle.create ~spot_check_every:8
      ~labels:labels_sparse sparse
  in
  let serve_fallback = Repro_serve.Resilient_oracle.create sparse in
  let sweep name q =
    ( name,
      fun () -> Array.iter (fun (u, v) -> ignore (q u v : int)) query_pairs )
  in
  [
    ("bfs sparse", fun () -> ignore (Traversal.bfs sparse 0));
    ("dijkstra sparse", fun () -> ignore (Dijkstra.distances wsparse 0));
    ("pll-build grid", fun () -> ignore (Pll.build grid));
    sweep "pll-query sparse" (Hub_label.query labels_sparse);
    sweep "flat-query sparse" (Flat_hub.query flat_sparse);
    ( "flat-query-batched sparse",
      fun () -> ignore (Flat_hub.query_many flat_sparse query_pairs) );
    ( "flat-query-cached sparse",
      fun () -> ignore (Flat_hub.query_many flat_cached query_pairs) );
    ("flat-pack sparse", fun () -> ignore (Flat_hub.of_labels labels_sparse));
    ( "encode labels grid",
      fun () -> ignore (Repro_labeling.Encoder.encode labels_grid) );
    ( "hopcroft-karp",
      fun () -> ignore (Repro_matching.Hopcroft_karp.solve bipartite_instance)
    );
    ("behrend", fun () -> ignore (Repro_rs.Behrend.construct z.behrend_n));
    ( "rs-graph",
      fun () -> ignore (Repro_rs.Rs_graph.build ~c:z.rs_c ~d:z.rs_d) );
    ( "grid-graph",
      fun () -> ignore (Grid_graph.create ~b:z.grid_b ~l:z.grid_l ()) );
    ( "gadget",
      fun () ->
        ignore (Degree_gadget.build (Grid_graph.create ~b:2 ~l:1 ())) );
    ("rs-hub path", fun () -> ignore (Rs_hub.build ~rng:(rng ()) ~d:4 path));
    ("tree-label", fun () -> ignore (Repro_labeling.Tree_label.build tree));
    ( "random-hitting grid",
      fun () -> ignore (Random_hitting.build ~rng:(rng ()) ~d:6 grid) );
    sweep "serve-query primary"
      (Repro_serve.Resilient_oracle.query serve_primary);
    sweep "serve-query flat" (Repro_serve.Resilient_oracle.query serve_flat);
    sweep "serve-query checked-1/8"
      (Repro_serve.Resilient_oracle.query serve_checked);
    sweep "serve-query fallback"
      (Repro_serve.Resilient_oracle.query serve_fallback);
  ]

(* ------------------------------------------------------------------ *)
(* Part 3: flat vs. assoc on one query stream -> BENCH_flat_query.json *)

let time_ns_per_query ~iters ~queries f =
  f ();
  (* warm up caches and trigger any lazy setup *)
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int (iters * queries)

let flat_vs_assoc ~mode (z : sizes) ~iters =
  let g = Generators.random_connected (rng ()) ~n:z.sparse_n ~m:z.sparse_m in
  let labels = Pll.build g in
  let flat = Flat_hub.of_labels labels in
  let cached = Flat_hub.of_labels ~cache_slots:(4 * z.pairs) labels in
  let pairs =
    let r = rng () in
    Array.init z.pairs (fun _ ->
        (Random.State.int r z.sparse_n, Random.State.int r z.sparse_n))
  in
  let sweep q () = Array.iter (fun (u, v) -> ignore (q u v : int)) pairs in
  let t = time_ns_per_query ~iters ~queries:z.pairs in
  let assoc_point = t (sweep (Hub_label.query labels)) in
  let flat_point = t (sweep (Flat_hub.query flat)) in
  let flat_batched = t (fun () -> ignore (Flat_hub.query_many flat pairs)) in
  let flat_cached = t (fun () -> ignore (Flat_hub.query_many cached pairs)) in
  let oc = open_out "BENCH_flat_query.json" in
  Printf.fprintf oc
    {|{
  "bench": "flat_query",
  "mode": "%s",
  "jobs": %d,
  "store": "flat",
  "recommended_domain_count": %d,
  "graph": { "n": %d, "m": %d },
  "queries": %d,
  "iters": %d,
  "avg_label_size": %.2f,
  "ns_per_query": {
    "assoc_point": %.1f,
    "flat_point": %.1f,
    "flat_batched": %.1f,
    "flat_cached": %.1f
  },
  "speedup_vs_assoc": {
    "point": %.3f,
    "batched": %.3f,
    "cached": %.3f
  }
}
|}
    mode
    (Repro_par.Pool.default_jobs ())
    (Repro_par.Pool.recommended ())
    z.sparse_n z.sparse_m z.pairs iters
    (Hub_label.avg_size labels)
    assoc_point flat_point flat_batched flat_cached
    (assoc_point /. flat_point)
    (assoc_point /. flat_batched)
    (assoc_point /. flat_cached);
  close_out oc;
  Printf.printf
    "flat vs assoc (%s, n=%d, %d pairs): assoc %.1f ns/q, flat %.1f ns/q, \
     batched %.1f ns/q, cached %.1f ns/q -> BENCH_flat_query.json\n%!"
    mode z.sparse_n z.pairs assoc_point flat_point flat_batched flat_cached

(* ------------------------------------------------------------------ *)
(* Part 4: the instrumented serving stack -> BENCH_serve_metrics.json.

   Every backend behind the uniform Backend.S signature, wrapped with
   Obs.instrument into one shared registry; the JSON carries the
   per-backend latency percentiles straight from the fixed-bucket
   histograms (real monotonic clock — this is a benchmark, the
   deterministic-clock path is exercised by the test suite). *)

let serve_metrics ~mode (z : sizes) ~rounds =
  let module Metrics = Repro_obs.Metrics in
  let module Backend = Repro_obs.Backend in
  let module Obs = Repro_obs.Obs in
  let g = Generators.random_connected (rng ()) ~n:z.sparse_n ~m:z.sparse_m in
  let labels = Pll.build g in
  let flat = Flat_hub.of_labels ~cache_slots:(4 * z.pairs) labels in
  let pairs =
    let r = rng () in
    Array.init z.pairs (fun _ ->
        (Random.State.int r z.sparse_n, Random.State.int r z.sparse_n))
  in
  let registry = Metrics.create () in
  let backends =
    [
      ("hub", Hub_label.backend labels);
      ("flat", Flat_hub.backend flat);
      ( "resilient",
        Repro_serve.Resilient_oracle.backend
          (Repro_serve.Resilient_oracle.create ~spot_check_every:8
             ~labels g) );
      (* the CLI's default cadence: every answer spot-checked *)
      ( "resilient-k1",
        Repro_serve.Resilient_oracle.backend
          (Repro_serve.Resilient_oracle.create ~spot_check_every:1
             ~labels g) );
    ]
  in
  let instrumented =
    List.map
      (fun (prefix, b) -> (prefix, Obs.instrument ~prefix registry b))
      backends
  in
  (* GC words allocated per query by each instrumented backend; major
     words include minor-heap survivors promoted during the run *)
  let words =
    List.map
      (fun (_, b) ->
        let before = Gc.quick_stat () in
        for _ = 1 to rounds do
          Array.iter (fun (u, v) -> ignore (Backend.query b u v : int)) pairs
        done;
        let after = Gc.quick_stat () in
        let per w0 w1 = (w1 -. w0) /. float_of_int (rounds * z.pairs) in
        ( per before.Gc.minor_words after.Gc.minor_words,
          per before.Gc.major_words after.Gc.major_words ))
      instrumented
  in
  let snap = Metrics.snapshot registry in
  let backend_json ((prefix, b), (minor_words, major_words)) =
    let h =
      match Metrics.find_histogram snap (prefix ^ ".latency_ns") with
      | Some h -> h
      | None ->
        {
          Metrics.count = 0;
          sum = 0;
          p50 = 0;
          p90 = 0;
          p99 = 0;
          max = 0;
          exemplars = [];
        }
    in
    let counter name =
      Option.value ~default:0 (Metrics.find_counter snap (prefix ^ name))
    in
    Printf.sprintf
      {|    "%s": {
      "backend": "%s",
      "space_words": %d,
      "queries": %d,
      "cache_hit": %d,
      "cache_miss": %d,
      "latency_ns": { "count": %d, "sum": %d, "p50": %d, "p90": %d, "p99": %d, "max": %d },
      "minor_words_per_query": %.1f,
      "major_words_per_query": %.1f
    }|}
      prefix (Backend.name b) (Backend.space_words b) (counter ".queries")
      (counter ".cache.hit") (counter ".cache.miss") h.Metrics.count
      h.Metrics.sum h.Metrics.p50 h.Metrics.p90 h.Metrics.p99 h.Metrics.max
      minor_words major_words
  in
  let oc = open_out "BENCH_serve_metrics.json" in
  Printf.fprintf oc
    {|{
  "bench": "serve_metrics",
  "mode": "%s",
  "seed": %d,
  "jobs": %d,
  "store": "flat",
  "recommended_domain_count": %d,
  "graph": { "n": %d, "m": %d },
  "queries_per_backend": %d,
  "backends": {
%s
  }
}
|}
    mode !seed
    (Repro_par.Pool.default_jobs ())
    (Repro_par.Pool.recommended ())
    z.sparse_n z.sparse_m (rounds * z.pairs)
    (String.concat ",\n"
       (List.map backend_json (List.combine instrumented words)));
  close_out oc;
  List.iter2
    (fun (prefix, _) (minor_words, major_words) ->
      match Metrics.find_histogram snap (prefix ^ ".latency_ns") with
      | Some h ->
          Printf.printf
            "serve metrics (%s): %-12s p50 %d ns, p90 %d ns, p99 %d ns, max \
             %d ns over %d queries, %.1f minor / %.1f major words/query\n%!"
            mode prefix h.Metrics.p50 h.Metrics.p90 h.Metrics.p99
            h.Metrics.max h.Metrics.count minor_words major_words
      | None -> ())
    instrumented words;
  Printf.printf "-> BENCH_serve_metrics.json\n%!"

(* ------------------------------------------------------------------ *)
(* Part 5: per-phase construction profiles -> BENCH_build_profile.json.

   Each construction pipeline is pre-instrumented with Repro_obs.Span
   phases named after the proof structure (docs/OBSERVABILITY.md lists
   the full set); wrapping a build in Span.profile yields the timed
   tree. The JSON stores one tree per pipeline, so a regression in any
   single stage (e.g. the Theorem 4.1 König-cover step) is visible
   without re-deriving anything. *)

let build_profile ~mode (z : sizes) =
  let module Span = Repro_obs.Span in
  let g = Generators.random_connected (rng ()) ~n:z.sparse_n ~m:z.sparse_m in
  let path = Generators.path z.path_n in
  let profiled name f =
    let _, root = Span.profile ~name:("profile:" ^ name) f in
    match root.Span.children with
    | [ tree ] -> tree
    | _ -> root (* defensive: keep whatever was recorded *)
  in
  let labels = ref None in
  let pll_tree = profiled "pll" (fun () -> labels := Some (Pll.build g)) in
  let labels = Option.get !labels in
  let rs_tree =
    profiled "rs_hub" (fun () ->
        ignore (Rs_hub.build ~rng:(rng ()) ~d:z.rs_d path))
  in
  let pack_tree =
    profiled "flat_pack" (fun () -> ignore (Flat_hub.of_labels labels))
  in
  let grid = ref None in
  let grid_tree =
    profiled "grid" (fun () ->
        grid := Some (Grid_graph.create ~b:z.grid_b ~l:z.grid_l ()))
  in
  let gadget_tree =
    profiled "gadget" (fun () ->
        ignore (Degree_gadget.build (Option.get !grid)))
  in
  let profiles =
    [
      ("pll", pll_tree);
      ("rs_hub", rs_tree);
      ("flat_pack", pack_tree);
      ("grid", grid_tree);
      ("gadget", gadget_tree);
    ]
  in
  let oc = open_out "BENCH_build_profile.json" in
  Printf.fprintf oc
    {|{
  "bench": "build_profile",
  "mode": "%s",
  "seed": %d,
  "jobs": %d,
  "store": "assoc",
  "recommended_domain_count": %d,
  "graph": { "n": %d, "m": %d },
  "profiles": {
%s
  }
}
|}
    mode !seed
    (Repro_par.Pool.default_jobs ())
    (Repro_par.Pool.recommended ())
    z.sparse_n z.sparse_m
    (String.concat ",\n"
       (List.map
          (fun (k, tree) -> Printf.sprintf {|    "%s": %s|} k (Span.to_json tree))
          profiles));
  close_out oc;
  List.iter
    (fun (k, tree) ->
      Printf.printf "build profile (%s): %-9s %Ld ns across %d phases\n%!" mode
        k (Span.total_ns tree)
        (List.length tree.Span.children))
    profiles;
  Printf.printf "-> BENCH_build_profile.json\n%!"

(* ------------------------------------------------------------------ *)
(* Part 6: multicore scaling + determinism -> BENCH_parallel.json.

   For jobs in {1, 2, 4}: time the parallel distance rows, the Theorem
   4.1 construction and the batched query fan-out on one shared pool,
   and hash every observable output (labels, stats, the span tree under
   a manual clock). The hashes must agree across job counts — that is
   the determinism contract of Repro_par.Pool — while the timings show
   whatever speedup the machine has cores for; jobs_available records
   how many that is, so a flat ratio on a 1-core box explains itself. *)

let run_parallel ~mode (z : sizes) =
  let module Pool = Repro_par.Pool in
  let module Checksum = Repro_par.Checksum in
  let module Span = Repro_obs.Span in
  let module Clock = Repro_obs.Clock in
  let iters = if mode = "smoke" then 2 else 50 in
  let sparse = Generators.random_connected (rng ()) ~n:z.sparse_n ~m:z.sparse_m in
  let rs_n = max 8 (z.sparse_n / 4) in
  let deg3 = Generators.random_bounded_degree (rng ()) ~n:rs_n ~d:3 in
  let labels = Pll.build sparse in
  let flat = Flat_hub.of_labels labels in
  let pairs =
    let r = rng () in
    Array.init z.pairs (fun _ ->
        (Random.State.int r z.sparse_n, Random.State.int r z.sparse_n))
  in
  let time_ms f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let t1 = Unix.gettimeofday () in
    ((t1 -. t0) *. 1e3, r)
  in
  let rows_digest rows =
    let buf = Buffer.create (1 lsl 16) in
    Array.iter
      (Array.iter (fun d ->
           Buffer.add_string buf (string_of_int d);
           Buffer.add_char buf ' '))
      rows;
    Checksum.sha256_hex (Buffer.contents buf)
  in
  let one_run jobs =
    Pool.with_pool ~jobs (fun pool ->
        let rows_ms, rows = time_ms (fun () -> Traversal.bfs_rows ~pool sparse) in
        let rows_sha = rows_digest rows in
        (* same seed every run: the construction's random draws all
           happen on the submitting domain, so the labeling, stats and
           span tree must be byte-identical whatever [jobs] is *)
        let clock = Clock.read (Clock.manual ~auto_step:1L ()) in
        let build_ms, ((labels, stats), span) =
          time_ms (fun () ->
              Span.profile ~clock ~name:"bench-parallel" (fun () ->
                  Rs_hub.build ~rng:(rng ()) ~d:z.rs_d ~pool deg3))
        in
        let labels_sha = Checksum.sha256_hex (Hub_io.to_string labels) in
        let stats_sha =
          Checksum.sha256_hex
            (Printf.sprintf "d=%d n=%d s=%d q=%d r=%d f=%d buckets=%d mm=%d hubs=%d"
               stats.Rs_hub.d stats.Rs_hub.n stats.Rs_hub.global_size
               stats.Rs_hub.q_total stats.Rs_hub.r_total stats.Rs_hub.f_total
               stats.Rs_hub.bucket_count stats.Rs_hub.matching_edge_total
               stats.Rs_hub.total_hubs)
        in
        let span_sha = Checksum.sha256_hex (Span.to_json span) in
        let query_ms, answers =
          time_ms (fun () ->
              let out = ref [||] in
              for _ = 1 to iters do
                out := Flat_hub.query_many ~pool flat pairs
              done;
              !out)
        in
        let answers_sha =
          Checksum.sha256_hex
            (String.concat ","
               (Array.to_list (Array.map string_of_int answers)))
        in
        let query_ns_per_q =
          query_ms *. 1e6 /. float_of_int (iters * z.pairs)
        in
        ( jobs,
          rows_ms,
          build_ms,
          query_ns_per_q,
          rows_sha,
          labels_sha,
          stats_sha,
          span_sha,
          answers_sha ))
  in
  let runs = List.map one_run [ 1; 2; 4 ] in
  let shas_of (_, _, _, _, a, b, c, d, e) = [ a; b; c; d; e ] in
  let deterministic =
    match runs with
    | [] -> true
    | first :: rest ->
        List.for_all (fun r -> shas_of r = shas_of first) rest
  in
  let base =
    match runs with (_, r, b, q, _, _, _, _, _) :: _ -> (r, b, q) | [] -> (1., 1., 1.)
  in
  let run_json (jobs, rows_ms, build_ms, query_ns, rows_sha, labels_sha,
                stats_sha, span_sha, answers_sha) =
    let r1, b1, q1 = base in
    Printf.sprintf
      {|    {
      "jobs": %d,
      "bfs_rows_ms": %.2f,
      "rs_hub_build_ms": %.2f,
      "query_many_ns_per_query": %.1f,
      "speedup_vs_jobs1": { "bfs_rows": %.3f, "rs_hub_build": %.3f, "query_many": %.3f },
      "sha256": {
        "distance_rows": "%s",
        "labels": "%s",
        "stats": "%s",
        "span_json": "%s",
        "batch_answers": "%s"
      }
    }|}
      jobs rows_ms build_ms query_ns (r1 /. rows_ms) (b1 /. build_ms)
      (q1 /. query_ns) rows_sha labels_sha stats_sha span_sha answers_sha
  in
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc
    {|{
  "bench": "parallel",
  "mode": "%s",
  "seed": %d,
  "store": "flat",
  "jobs_available": %d,
  "default_jobs": %d,
  "graph": { "n": %d, "m": %d },
  "rs_hub_graph": { "n": %d, "max_degree": 3 },
  "queries": %d,
  "query_iters": %d,
  "deterministic_across_jobs": %b,
  "runs": [
%s
  ]
}
|}
    mode !seed (Pool.recommended ()) (Pool.default_jobs ()) z.sparse_n
    z.sparse_m rs_n z.pairs iters deterministic
    (String.concat ",\n" (List.map run_json runs));
  close_out oc;
  List.iter
    (fun (jobs, rows_ms, build_ms, query_ns, _, _, _, _, _) ->
      Printf.printf
        "parallel (%s, jobs=%d): bfs_rows %.2f ms, rs-hub %.2f ms, \
         query_many %.1f ns/q\n%!"
        mode jobs rows_ms build_ms query_ns)
    runs;
  Printf.printf
    "parallel: outputs byte-identical across jobs {1,2,4}: %b (%d core(s) \
     available) -> BENCH_parallel.json\n%!"
    deterministic (Pool.recommended ())

(* Part 7: the sharded serving tier -> BENCH_shard.json.

   Fan-out latency of the router over {1, 2, 4} forked workers against
   the same Resilient_oracle stack in-process, plus
   recovery-time-to-healthy after a worker is killed mid-stream. Every
   configuration answers the identical query stream and the answer
   digests must agree — sharding must never change a distance. This
   part MUST run before anything creates a domain pool: the router
   forks, and OCaml 5 forbids fork once a domain has been spawned. *)

let run_shard ~mode (z : sizes) =
  let module Router = Repro_shard.Router in
  let module Supervisor = Repro_shard.Supervisor in
  let module Checksum = Repro_par.Checksum in
  let iters = if mode = "smoke" then 2 else 30 in
  let sparse = Generators.random_connected (rng ()) ~n:z.sparse_n ~m:z.sparse_m in
  let labels = Pll.build sparse in
  let pairs =
    let r = rng () in
    Array.init z.pairs (fun _ ->
        (Random.State.int r z.sparse_n, Random.State.int r z.sparse_n))
  in
  let time_ms f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let t1 = Unix.gettimeofday () in
    ((t1 -. t0) *. 1e3, r)
  in
  let digest answers =
    Checksum.sha256_hex
      (String.concat ","
         (Array.to_list
            (Array.map (fun (a : Router.answer) -> string_of_int a.Router.dist)
               answers)))
  in
  (* the in-process baseline is the exact stack a worker runs: flat
     store behind the resilient chain *)
  let flat = Flat_hub.of_labels labels in
  let oracle =
    Repro_serve.Resilient_oracle.create ~spot_check_every:0
      ~primary:
        (Repro_serve.Resilient_oracle.store_primary (Repro_hub.Store.Flat flat))
      sparse
  in
  let single_ms, single_answers =
    time_ms (fun () ->
        let out = ref [||] in
        for _ = 1 to iters do
          out := Repro_serve.Resilient_oracle.query_many_detailed oracle pairs
        done;
        !out)
  in
  let single_sha =
    Checksum.sha256_hex
      (String.concat ","
         (Array.to_list
            (Array.map (fun (d, _) -> string_of_int d) single_answers)))
  in
  let single_ns = single_ms *. 1e6 /. float_of_int (iters * z.pairs) in
  (* a short backoff keeps the recovery measurement about respawn+ping
     cost, not about waiting out the production default *)
  let supervisor =
    {
      Supervisor.default_config with
      Supervisor.base_backoff_ns = 10_000_000L;
      jitter_frac = 0.0;
    }
  in
  let router_cfg shards =
    {
      (Router.default_config sparse) with
      Router.labels = Some labels;
      shards;
      partition = Repro_hub.Partition.Hash;
      supervisor;
      spot_check_every = 0;
      seed = !seed;
    }
  in
  let one_run shards =
    let router = Router.create (router_cfg shards) in
    let fan_ms, answers =
      time_ms (fun () ->
          let out = ref [||] in
          for _ = 1 to iters do
            out := Router.query_batch router pairs
          done;
          !out)
    in
    Router.shutdown router;
    let ns = fan_ms *. 1e6 /. float_of_int (iters * z.pairs) in
    (shards, ns, digest answers)
  in
  let runs = List.map one_run [ 1; 2; 4 ] in
  (* recovery: kill one of two workers mid-stream, then time the heal
     (backoff + respawn + ping) back to Healthy *)
  let recovery_router =
    Router.create
      {
        (router_cfg 2) with
        Router.chaos =
          [ (0, Repro_serve.Fault_injector.chaos ~after_frames:4
                  Repro_serve.Fault_injector.Kill) ];
      }
  in
  let crash_answers = Router.query_batch recovery_router pairs in
  let recovery_ms, () = time_ms (fun () -> Router.heal recovery_router) in
  let sup = Router.supervisor recovery_router in
  let recovered_state = Supervisor.state_name (Supervisor.state sup 0) in
  let recovery_restarts = Supervisor.restarts_used sup 0 in
  let healed_answers = Router.query_batch recovery_router pairs in
  Router.shutdown recovery_router;
  let shas = single_sha :: List.map (fun (_, _, s) -> s) runs in
  let consistent =
    List.for_all (( = ) single_sha) shas
    && digest crash_answers = single_sha
    && digest healed_answers = single_sha
  in
  let run_json (shards, ns, sha) =
    Printf.sprintf
      {|    { "shards": %d, "ns_per_query": %.1f, "vs_single_process": %.3f, "answers_sha256": "%s" }|}
      shards ns (single_ns /. ns) sha
  in
  let oc = open_out "BENCH_shard.json" in
  Printf.fprintf oc
    {|{
  "bench": "shard",
  "mode": "%s",
  "seed": %d,
  "store": "flat",
  "graph": { "n": %d, "m": %d },
  "queries": %d,
  "iters": %d,
  "single_process": { "ns_per_query": %.1f, "answers_sha256": "%s" },
  "runs": [
%s
  ],
  "recovery": {
    "kill_after_frames": 4,
    "base_backoff_ms": 10,
    "recovery_ms": %.2f,
    "restarts_used": %d,
    "state_after_heal": "%s"
  },
  "answers_identical_everywhere": %b
}
|}
    mode !seed z.sparse_n z.sparse_m z.pairs iters single_ns single_sha
    (String.concat ",\n" (List.map run_json runs))
    recovery_ms recovery_restarts recovered_state consistent;
  close_out oc;
  List.iter
    (fun (shards, ns, _) ->
      Printf.printf "shard (%s, shards=%d): %.1f ns/q (single-process %.1f)\n%!"
        mode shards ns single_ns)
    runs;
  Printf.printf
    "shard: recovery to %s in %.2f ms after kill; answers identical across \
     every configuration: %b -> BENCH_shard.json\n%!"
    recovered_state recovery_ms consistent

(* ------------------------------------------------------------------ *)
(* Part 8: the zero-copy mmap store -> BENCH_mmap.json.

   Cold start (parse the packed file onto the heap vs. map it), steady
   state (ns/query across assoc, heap flat and mmap on the identical
   stream), heap growth of each cold start, and the sha256 digest of
   every answer array — which must be identical across the three
   stores: the mmap view must never trade correctness for its O(1)
   open. No forks, no domain pools, so placement after Part 7 is safe. *)

let run_mmap ~mode (z : sizes) =
  let module Checksum = Repro_par.Checksum in
  let iters = if mode = "smoke" then 2 else 200 in
  let open_iters = if mode = "smoke" then 3 else 40 in
  let g = Generators.random_connected (rng ()) ~n:z.sparse_n ~m:z.sparse_m in
  let labels = Pll.build g in
  let packed = Hub_io.flat_to_bytes (Flat_hub.of_labels labels) in
  let path = Filename.temp_file "hubhard_bench_mmap" ".bin" in
  let oc = open_out_bin path in
  output_string oc packed;
  close_out oc;
  let pairs =
    let r = rng () in
    Array.init z.pairs (fun _ ->
        (Random.State.int r z.sparse_n, Random.State.int r z.sparse_n))
  in
  let heap_parse () =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Hub_io.flat_of_bytes_res s with
    | Ok f -> f
    | Error e -> failwith e.Hub_io.msg
  in
  let mmap_open () =
    match Mmap_hub.load_res path with
    | Ok s -> s
    | Error e -> failwith (Mmap_hub.error_to_string e)
  in
  (* best-of-N cold starts; the first (warm-up) call puts the file in
     the page cache for both contenders, so this compares parsing
     against mapping, not disk against disk *)
  let time_best_ms f =
    ignore (f ());
    let best = ref infinity in
    for _ = 1 to open_iters do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let t1 = Unix.gettimeofday () in
      best := Float.min !best ((t1 -. t0) *. 1e3)
    done;
    !best
  in
  let parse_ms = time_best_ms heap_parse in
  let open_ms = time_best_ms mmap_open in
  (* live-heap growth of one cold start each (words, exact after a
     compaction); the mapped words live outside the OCaml heap entirely *)
  let live () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  let w0 = live () in
  let flat_heap = heap_parse () in
  let w1 = live () in
  let store = mmap_open () in
  let w2 = live () in
  let t = time_ns_per_query ~iters ~queries:z.pairs in
  let sweep q () = Array.iter (fun (u, v) -> ignore (q u v : int)) pairs in
  let assoc_ns = t (sweep (Hub_label.query labels)) in
  let flat_ns = t (sweep (Flat_hub.query flat_heap)) in
  let mmap_ns = t (sweep (Mmap_hub.query store)) in
  let digest q =
    Checksum.sha256_hex
      (String.concat ","
         (Array.to_list (Array.map (fun (u, v) -> string_of_int (q u v)) pairs)))
  in
  let assoc_sha = digest (Hub_label.query labels) in
  let flat_sha = digest (Flat_hub.query flat_heap) in
  let mmap_sha = digest (Mmap_hub.query store) in
  let identical = assoc_sha = flat_sha && flat_sha = mmap_sha in
  Sys.remove path;
  (* POSIX: the mapping outlives the name *)
  let oc = open_out "BENCH_mmap.json" in
  Printf.fprintf oc
    {|{
  "bench": "mmap",
  "mode": "%s",
  "seed": %d,
  "jobs": %d,
  "store": "mmap",
  "graph": { "n": %d, "m": %d },
  "packed_bytes": %d,
  "queries": %d,
  "iters": %d,
  "cold_start_best_of": %d,
  "cold_start": {
    "heap_parse_ms": %.3f,
    "mmap_open_ms": %.3f,
    "open_speedup": %.1f
  },
  "live_heap_words_cold_start": { "heap_parse": %d, "mmap_open": %d },
  "ns_per_query": { "assoc": %.1f, "flat_heap": %.1f, "mmap": %.1f },
  "answers_sha256": {
    "assoc": "%s",
    "flat_heap": "%s",
    "mmap": "%s"
  },
  "answers_identical": %b
}
|}
    mode !seed
    (Repro_par.Pool.default_jobs ())
    z.sparse_n z.sparse_m (String.length packed) z.pairs iters open_iters
    parse_ms open_ms
    (parse_ms /. open_ms)
    (w1 - w0) (w2 - w1) assoc_ns flat_ns mmap_ns assoc_sha flat_sha mmap_sha
    identical;
  close_out oc;
  Printf.printf
    "mmap (%s, %d bytes packed): open %.3f ms vs heap parse %.3f ms \
     (%.1fx); %.1f ns/q (flat heap %.1f, assoc %.1f); answers identical \
     across stores: %b -> BENCH_mmap.json\n%!"
    mode (String.length packed) open_ms parse_ms
    (parse_ms /. open_ms)
    mmap_ns flat_ns assoc_ns identical

(* Part 9: the ops query surface -> BENCH_ops.json.

   One request per operation of the Ops algebra, timed across the
   three in-process backends (the lifted assoc labeling, the flat
   store's inverted-index fast paths and the zero-copy mmap view of
   the same bytes), plus the sha256 digest of every canonical response
   string — which must be identical across all three: the fast paths
   must never trade correctness for their asymptotics. Uses the
   default domain pool for the fanned ops, so it runs after Part 7's
   forks. *)

let run_ops ~mode (z : sizes) =
  let module Checksum = Repro_par.Checksum in
  let module Ops = Repro_obs.Ops in
  let module Backend = Repro_obs.Backend in
  let iters = if mode = "smoke" then 1 else 40 in
  let g = Generators.random_connected (rng ()) ~n:z.sparse_n ~m:z.sparse_m in
  let n = Graph.n g in
  let labels = Pll.build g in
  let flat = Flat_hub.of_labels labels in
  let path = Filename.temp_file "hubhard_bench_ops" ".bin" in
  let oc = open_out_bin path in
  output_string oc (Hub_io.flat_to_bytes flat);
  close_out oc;
  let store =
    match Mmap_hub.load_res path with
    | Ok s -> s
    | Error e -> failwith (Mmap_hub.error_to_string e)
  in
  Sys.remove path;
  let r = rng () in
  let v () = Random.State.int r n in
  let vs k = Array.init k (fun _ -> v ()) in
  (* (request, heavy): heavy ops touch all n rows, so they get a
     reduced iteration count *)
  let reqs =
    [
      (Ops.Dist { u = v (); v = v () }, false);
      (Ops.Batch (Array.init 64 (fun _ -> (v (), v ()))), false);
      (Ops.One_to_many { source = v (); targets = vs 64 }, false);
      (Ops.Many_to_many { sources = vs 8; targets = vs 16 }, false);
      (Ops.Top_k_nearest { source = v (); k = 32 }, false);
      (Ops.Eccentricity (v ()), false);
      (Ops.Farthest (v ()), false);
      (Ops.Diameter_radius, true);
    ]
  in
  let backends =
    [
      ("assoc", Backend.lift ~n (Hub_label.backend labels));
      ("flat", Flat_hub.ops flat);
      ("mmap", Mmap_hub.ops store);
    ]
  in
  let time_ns b req ~heavy =
    let iters = if heavy then max 1 (iters / 20) else iters in
    ignore (Backend.op b req);
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Backend.op b req)
    done;
    let t1 = Unix.gettimeofday () in
    (t1 -. t0) *. 1e9 /. float_of_int iters
  in
  let rows =
    List.map
      (fun (req, heavy) ->
        let ns =
          List.map (fun (bn, b) -> (bn, time_ns b req ~heavy)) backends
        in
        (req, ns))
      reqs
  in
  (* the digest every store must agree on: canonical response strings
     of the whole battery, in order *)
  let digest (_, b) =
    Checksum.sha256_hex
      (String.concat "\n"
         (List.map
            (fun (req, _) -> Ops.response_to_string (Backend.op b req))
            reqs))
  in
  let shas = List.map (fun b -> (fst b, digest b)) backends in
  let identical =
    match shas with
    | (_, h0) :: rest -> List.for_all (fun (_, h) -> h = h0) rest
    | [] -> true
  in
  let oc = open_out "BENCH_ops.json" in
  Printf.fprintf oc
    {|{
  "bench": "ops",
  "mode": "%s",
  "seed": %d,
  "jobs": %d,
  "graph": { "n": %d, "m": %d },
  "iters": %d,
  "ops": [
%s
  ],
  "answers_sha256": { %s },
  "answers_identical": %b
}
|}
    mode !seed
    (Repro_par.Pool.default_jobs ())
    z.sparse_n z.sparse_m iters
    (String.concat ",\n"
       (List.map
          (fun (req, ns) ->
            Printf.sprintf
              {|    { "op": "%s", "request": "%s", "ns_per_op": { %s } }|}
              (Ops.name req)
              (Ops.request_to_string req)
              (String.concat ", "
                 (List.map
                    (fun (bn, t) -> Printf.sprintf {|"%s": %.1f|} bn t)
                    ns)))
          rows))
    (String.concat ", "
       (List.map (fun (bn, h) -> Printf.sprintf {|"%s": "%s"|} bn h) shas))
    identical;
  close_out oc;
  let flat_ns name =
    match List.assoc_opt name (List.map (fun (r, ns) -> (Ops.name r, ns)) rows)
    with
    | Some ns -> ( match List.assoc_opt "flat" ns with Some t -> t | None -> 0.)
    | None -> 0.
  in
  Printf.printf
    "ops (%s, n=%d): flat ecc %.0f ns, top-k %.0f ns, diam %.0f ns; answers \
     identical across assoc/flat/mmap: %b -> BENCH_ops.json\n%!"
    mode z.sparse_n (flat_ns "eccentricity") (flat_ns "top_k_nearest")
    (flat_ns "diameter_radius") identical

(* ------------------------------------------------------------------ *)
(* Part 10: distributed-tracing overhead -> BENCH_trace.json.

   ns/query through a 2-shard forked router with tracing off, with
   tracing at sample_every=1 (every query minted, sampled and recorded
   end to end, a context block on every wire frame) and at
   sample_every=16 (context still on every frame, 1-in-16 recorded).
   Answers must stay identical in all three — the context block is
   invisible to the query path. The router forks, so this part MUST run
   before anything creates a domain pool, alongside Part 7. *)

let run_trace ~mode (z : sizes) =
  let module Router = Repro_shard.Router in
  let module Checksum = Repro_par.Checksum in
  let iters = if mode = "smoke" then 2 else 30 in
  let sparse = Generators.random_connected (rng ()) ~n:z.sparse_n ~m:z.sparse_m in
  let labels = Pll.build sparse in
  let pairs =
    let r = rng () in
    Array.init z.pairs (fun _ ->
        (Random.State.int r z.sparse_n, Random.State.int r z.sparse_n))
  in
  let time_ms f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let t1 = Unix.gettimeofday () in
    ((t1 -. t0) *. 1e3, r)
  in
  let digest answers =
    Checksum.sha256_hex
      (String.concat ","
         (Array.to_list
            (Array.map (fun (a : Router.answer) -> string_of_int a.Router.dist)
               answers)))
  in
  let one_run name trace =
    let router =
      Router.create
        {
          (Router.default_config sparse) with
          Router.labels = Some labels;
          shards = 2;
          partition = Repro_hub.Partition.Hash;
          spot_check_every = 0;
          seed = !seed;
          trace;
        }
    in
    let ms, answers =
      time_ms (fun () ->
          let out = ref [||] in
          for _ = 1 to iters do
            out := Router.query_batch router pairs
          done;
          !out)
    in
    let traces = List.length (Router.trace_trees router) in
    Router.shutdown router;
    let ns = ms *. 1e6 /. float_of_int (iters * z.pairs) in
    (name, ns, traces, digest answers)
  in
  let off = one_run "off" None in
  let every1 =
    one_run "every-query"
      (Some { Router.default_trace_config with Router.sample_every = 1 })
  in
  let every16 =
    one_run "1-in-16"
      (Some { Router.default_trace_config with Router.sample_every = 16 })
  in
  let ns_of (_, ns, _, _) = ns and sha_of (_, _, _, s) = s in
  let identical =
    sha_of off = sha_of every1 && sha_of off = sha_of every16
  in
  let run_json (name, ns, traces, sha) =
    Printf.sprintf
      {|    { "sampling": "%s", "ns_per_query": %.1f, "overhead_ns_per_query": %.1f, "traces_recorded": %d, "answers_sha256": "%s" }|}
      name ns (ns -. ns_of off) traces sha
  in
  let oc = open_out "BENCH_trace.json" in
  Printf.fprintf oc
    {|{
  "bench": "trace",
  "mode": "%s",
  "seed": %d,
  "store": "flat",
  "graph": { "n": %d, "m": %d },
  "queries": %d,
  "iters": %d,
  "shards": 2,
  "runs": [
%s
  ],
  "answers_identical_everywhere": %b
}
|}
    mode !seed z.sparse_n z.sparse_m z.pairs iters
    (String.concat ",\n" (List.map run_json [ off; every1; every16 ]))
    identical;
  close_out oc;
  List.iter
    (fun (name, ns, traces, _) ->
      Printf.printf
        "trace (%s, sampling=%s): %.1f ns/q (+%.1f vs off), %d trace(s)\n%!"
        mode name ns (ns -. ns_of off) traces)
    [ off; every1; every16 ];
  Printf.printf
    "trace: answers identical with tracing off/sampled/full: %b -> \
     BENCH_trace.json\n%!"
    identical

(* ------------------------------------------------------------------ *)
(* Part 11: the compressed HUBFLAT2 store -> BENCH_compress.json.

   Size: the same labeling packed as HUBFLAT1 vs HUBFLAT2 (file bytes,
   bytes/entry, measured bits/entry from Hub_stats.packed_sizes and the
   compression ratio). Cold start: best-of-N opens across heap parse,
   HUBFLAT1 mmap and HUBFLAT2 mmap. Steady state: ns/query for point
   queries, pooled batches (query_many) and one eccentricity op across
   flat/mmap/compact. Every answer array must hash identically across
   assoc/flat/mmap/compact — compression must never change a distance.
   Uses the default domain pool for batches, so it runs after the
   forking parts. *)

let run_compress ~mode (z : sizes) =
  let module Checksum = Repro_par.Checksum in
  let module Ops = Repro_obs.Ops in
  let module Backend = Repro_obs.Backend in
  let iters = if mode = "smoke" then 2 else 200 in
  let open_iters = if mode = "smoke" then 3 else 40 in
  let ecc_iters = if mode = "smoke" then 1 else 20 in
  let g = Generators.random_connected (rng ()) ~n:z.sparse_n ~m:z.sparse_m in
  let labels = Pll.build g in
  let flat = Flat_hub.of_labels labels in
  let ps = Repro_hub.Hub_stats.packed_sizes flat in
  let write_tmp suffix bytes =
    let path = Filename.temp_file "hubhard_bench_compress" suffix in
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc;
    path
  in
  let flat_path = write_tmp ".bin" (Hub_io.flat_to_bytes flat) in
  let compact_path = write_tmp ".cbin" (Hub_io.compact_to_bytes flat) in
  let mmap_open () =
    match Mmap_hub.load_res flat_path with
    | Ok s -> s
    | Error e -> failwith (Mmap_hub.error_to_string e)
  in
  let compact_open () =
    match Compact_hub.load_res compact_path with
    | Ok s -> s
    | Error e -> failwith (Compact_hub.error_to_string e)
  in
  let heap_parse () =
    let ic = open_in_bin flat_path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Hub_io.flat_of_bytes_res s with
    | Ok f -> f
    | Error e -> failwith e.Hub_io.msg
  in
  let time_best_ms f =
    ignore (f ());
    let best = ref infinity in
    for _ = 1 to open_iters do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let t1 = Unix.gettimeofday () in
      best := Float.min !best ((t1 -. t0) *. 1e3)
    done;
    !best
  in
  let parse_ms = time_best_ms heap_parse in
  let mmap_ms = time_best_ms mmap_open in
  let compact_ms = time_best_ms compact_open in
  let mm = mmap_open () in
  let compact = compact_open () in
  Sys.remove flat_path;
  Sys.remove compact_path;
  let pairs =
    let r = rng () in
    Array.init z.pairs (fun _ ->
        (Random.State.int r z.sparse_n, Random.State.int r z.sparse_n))
  in
  let sweep q () = Array.iter (fun (u, v) -> ignore (q u v : int)) pairs in
  let t = time_ns_per_query ~iters ~queries:z.pairs in
  let point =
    [
      ("flat", t (sweep (Flat_hub.query flat)));
      ("mmap", t (sweep (Mmap_hub.query mm)));
      ("compact", t (sweep (Compact_hub.query compact)));
    ]
  in
  let batch =
    [
      ("flat", t (fun () -> ignore (Flat_hub.query_many flat pairs)));
      ("mmap", t (fun () -> ignore (Mmap_hub.query_many mm pairs)));
      ("compact", t (fun () -> ignore (Compact_hub.query_many compact pairs)));
    ]
  in
  let ecc = Ops.Eccentricity 0 in
  let time_op b =
    ignore (Backend.op b ecc);
    let t0 = Unix.gettimeofday () in
    for _ = 1 to ecc_iters do
      ignore (Backend.op b ecc)
    done;
    let t1 = Unix.gettimeofday () in
    (t1 -. t0) *. 1e9 /. float_of_int ecc_iters
  in
  let ops =
    [
      ("flat", time_op (Flat_hub.ops flat));
      ("mmap", time_op (Mmap_hub.ops mm));
      ("compact", time_op (Compact_hub.ops compact));
    ]
  in
  let digest q =
    Checksum.sha256_hex
      (String.concat ","
         (Array.to_list (Array.map (fun (u, v) -> string_of_int (q u v)) pairs)))
  in
  let shas =
    [
      ("assoc", digest (Hub_label.query labels));
      ("flat", digest (Flat_hub.query flat));
      ("mmap", digest (Mmap_hub.query mm));
      ("compact", digest (Compact_hub.query compact));
    ]
  in
  let identical =
    match shas with
    | (_, h0) :: rest -> List.for_all (fun (_, h) -> h = h0) rest
    | [] -> true
  in
  let ratio =
    if ps.Repro_hub.Hub_stats.flat2_bytes = 0 then 0.
    else
      float_of_int ps.Repro_hub.Hub_stats.flat1_bytes
      /. float_of_int ps.Repro_hub.Hub_stats.flat2_bytes
  in
  let per_entry bytes =
    if ps.Repro_hub.Hub_stats.entries = 0 then 0.
    else float_of_int bytes /. float_of_int ps.Repro_hub.Hub_stats.entries
  in
  let json_map l =
    String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf {|"%s": %.1f|} k v) l)
  in
  let oc = open_out "BENCH_compress.json" in
  Printf.fprintf oc
    {|{
  "bench": "compress",
  "mode": "%s",
  "seed": %d,
  "jobs": %d,
  "store": "compact",
  "graph": { "n": %d, "m": %d },
  "label_entries": %d,
  "avg_label_size": %.2f,
  "max_label_size": %d,
  "packed_bytes": { "flat1": %d, "flat2": %d },
  "bytes_per_entry": { "flat1": %.2f, "flat2": %.2f },
  "bits_per_entry": { "flat1": %.2f, "flat2": %.2f },
  "compression_ratio": %.2f,
  "queries": %d,
  "iters": %d,
  "cold_start_best_of": %d,
  "cold_start_ms": { "heap_parse": %.3f, "mmap_open": %.3f, "compact_open": %.3f },
  "ns_per_query_point": { %s },
  "ns_per_query_batch": { %s },
  "ns_per_op_eccentricity": { %s },
  "answers_sha256": { %s },
  "answers_identical": %b
}
|}
    mode !seed
    (Repro_par.Pool.default_jobs ())
    z.sparse_n z.sparse_m ps.Repro_hub.Hub_stats.entries
    ps.Repro_hub.Hub_stats.avg_size ps.Repro_hub.Hub_stats.max_size
    ps.Repro_hub.Hub_stats.flat1_bytes ps.Repro_hub.Hub_stats.flat2_bytes
    (per_entry ps.Repro_hub.Hub_stats.flat1_bytes)
    (per_entry ps.Repro_hub.Hub_stats.flat2_bytes)
    ps.Repro_hub.Hub_stats.flat1_bits_per_entry
    ps.Repro_hub.Hub_stats.flat2_bits_per_entry ratio z.pairs iters open_iters
    parse_ms mmap_ms compact_ms (json_map point) (json_map batch)
    (json_map ops)
    (String.concat ", "
       (List.map (fun (bn, h) -> Printf.sprintf {|"%s": "%s"|} bn h) shas))
    identical;
  close_out oc;
  let ns_of l name =
    match List.assoc_opt name l with Some t -> t | None -> 0.
  in
  Printf.printf
    "compress (%s, %d entries): %d -> %d bytes (%.2fx, %.2f vs %.2f \
     bits/entry); point %.1f ns/q (flat %.1f); answers identical across \
     assoc/flat/mmap/compact: %b -> BENCH_compress.json\n%!"
    mode ps.Repro_hub.Hub_stats.entries ps.Repro_hub.Hub_stats.flat1_bytes
    ps.Repro_hub.Hub_stats.flat2_bytes ratio
    ps.Repro_hub.Hub_stats.flat1_bits_per_entry
    ps.Repro_hub.Hub_stats.flat2_bits_per_entry (ns_of point "compact")
    (ns_of point "flat") identical

(* ------------------------------------------------------------------ *)

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  (results, raw_results)

let () = Bechamel_notty.Unit.add Instance.monotonic_clock "ns"

let img (window, results) =
  Bechamel_notty.Multiple.image_of_ols_results ~rect:window
    ~predictor:Measure.run results

open Notty_unix

let run_smoke () =
  (* Parts 7 and 10 first: the router forks, so they must precede any
     domain pool. *)
  run_shard ~mode:"smoke" smoke_sizes;
  run_trace ~mode:"smoke" smoke_sizes;
  List.iter
    (fun (name, body) ->
      body ();
      Printf.printf "smoke ok: %s\n%!" name)
    (make_entries smoke_sizes);
  flat_vs_assoc ~mode:"smoke" smoke_sizes ~iters:2;
  serve_metrics ~mode:"smoke" smoke_sizes ~rounds:2;
  build_profile ~mode:"smoke" smoke_sizes;
  run_parallel ~mode:"smoke" smoke_sizes;
  run_mmap ~mode:"smoke" smoke_sizes;
  run_ops ~mode:"smoke" smoke_sizes;
  run_compress ~mode:"smoke" smoke_sizes;
  print_endline "bench smoke: all entries ran"

let run_full () =
  (* Parts 7 and 10 first: the router forks, so they must precede any
     domain pool (Parts 1 and 6 both spawn them). *)
  run_shard ~mode:"full" full_sizes;
  print_newline ();
  run_trace ~mode:"full" full_sizes;
  print_newline ();
  (* Part 1: paper-artifact experiment reports. *)
  Repro_experiments.Experiments.run_all ();
  (* Part 2: micro-benchmarks. *)
  print_newline ();
  print_endline "=== Bechamel micro-benchmarks (monotonic clock) ===";
  let tests =
    Test.make_grouped ~name:"hubhard" ~fmt:"%s %s"
      (List.map
         (fun (name, body) -> Test.make ~name (Staged.stage body))
         (make_entries full_sizes))
  in
  let window =
    match winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let results, _ = benchmark tests in
  img (window, results) |> eol |> output_image;
  (* Part 3: the flat-vs-assoc query comparison. *)
  print_newline ();
  flat_vs_assoc ~mode:"full" full_sizes ~iters:200;
  (* Part 4: per-backend latency percentiles from the metrics registry. *)
  print_newline ();
  serve_metrics ~mode:"full" full_sizes ~rounds:50;
  (* Part 5: per-phase construction profiles. *)
  print_newline ();
  build_profile ~mode:"full" full_sizes;
  (* Part 6: multicore scaling + determinism. *)
  print_newline ();
  run_parallel ~mode:"full" full_sizes;
  (* Part 8: the zero-copy mmap store. *)
  print_newline ();
  run_mmap ~mode:"full" full_sizes;
  (* Part 9: the ops query surface. *)
  print_newline ();
  run_ops ~mode:"full" full_sizes;
  (* Part 11: the compressed HUBFLAT2 store. *)
  print_newline ();
  run_compress ~mode:"full" full_sizes

let () =
  if Array.exists (( = ) "--smoke") Sys.argv then run_smoke ()
  else if Array.exists (( = ) "--flat-json") Sys.argv then
    (* just the flat-vs-assoc comparison at full size *)
    flat_vs_assoc ~mode:"full" full_sizes ~iters:200
  else if Array.exists (( = ) "--serve-metrics") Sys.argv then
    serve_metrics ~mode:"full" full_sizes ~rounds:50
  else if Array.exists (( = ) "--build-profile") Sys.argv then
    build_profile ~mode:"full" full_sizes
  else if Array.exists (( = ) "--parallel") Sys.argv then
    run_parallel ~mode:"full" full_sizes
  else if Array.exists (( = ) "--shard") Sys.argv then
    run_shard ~mode:"full" full_sizes
  else if Array.exists (( = ) "--mmap-json") Sys.argv then
    run_mmap ~mode:"full" full_sizes
  else if Array.exists (( = ) "--ops-json") Sys.argv then
    run_ops ~mode:"full" full_sizes
  else if Array.exists (( = ) "--trace-json") Sys.argv then
    run_trace ~mode:"full" full_sizes
  else if Array.exists (( = ) "--compress-json") Sys.argv then
    run_compress ~mode:"full" full_sizes
  else run_full ()
