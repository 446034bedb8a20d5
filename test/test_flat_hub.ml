(* Tests for the packed heap hub store: edge cases (empty labeling,
   single vertex), batched-vs-point agreement, the direct-mapped cache,
   and the binary save/load round trip. Malformed HUBFLAT1 bytes are
   rejected by the one validator; its hostile table, run through the
   heap parse and the mmap load alike, is in test_io_adversarial.ml. *)

open Repro_graph
open Repro_hub

let test_empty_labeling () =
  let flat = Flat_hub.of_labels (Hub_label.make ~n:0 [||]) in
  Test_util.check_int "n" 0 (Flat_hub.n flat);
  Test_util.check_int "total" 0 (Flat_hub.total_size flat);
  Alcotest.(check (array int)) "empty batch" [||] (Flat_hub.query_many flat [||]);
  let bytes = Hub_io.flat_to_bytes flat in
  (match Hub_io.flat_of_bytes_res bytes with
  | Ok flat' -> Test_util.check_bool "round trip" true (Flat_hub.equal flat flat')
  | Error e -> Alcotest.failf "empty store failed to load: %s" e.Hub_io.msg);
  Alcotest.check_raises "query on empty store"
    (Invalid_argument "Flat_hub.query") (fun () ->
      ignore (Flat_hub.query flat 0 0))

let test_single_vertex () =
  let flat = Flat_hub.of_labels (Hub_label.make ~n:1 [| [ (0, 0) ] |]) in
  Test_util.check_int "self distance" 0 (Flat_hub.query flat 0 0);
  Test_util.check_int "size" 1 (Flat_hub.size flat 0);
  Alcotest.(check (array int)) "batch" [| 0; 0 |]
    (Flat_hub.query_many flat [| (0, 0); (0, 0) |])

let test_empty_hubset_is_disconnected () =
  let flat = Flat_hub.of_labels (Hub_label.make ~n:2 [| [ (0, 0) ]; [] |]) in
  Test_util.check_bool "disjoint hubsets give inf" false
    (Dist.is_finite (Flat_hub.query flat 0 1));
  Test_util.check_int "empty side" 0 (Flat_hub.size flat 1)

let test_query_validates () =
  let flat = Flat_hub.of_labels (Hub_label.make ~n:2 [| [ (0, 0) ]; [] |]) in
  Alcotest.check_raises "negative" (Invalid_argument "Flat_hub.query")
    (fun () -> ignore (Flat_hub.query flat (-1) 0));
  Alcotest.check_raises "batched out of range"
    (Invalid_argument "Flat_hub.query_many") (fun () ->
      ignore (Flat_hub.query_many flat [| (0, 2) |]))

let flat_matches_assoc =
  Test_util.qcheck "flat store answers exactly like the assoc labeling"
    ~count:50 Gen.small_graph_gen (fun params ->
      let g = Gen.build_graph params in
      let labels = Pll.build g in
      let flat = Flat_hub.of_labels labels in
      let n = Graph.n g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Flat_hub.query flat u v <> Hub_label.query labels u v then
            ok := false
        done
      done;
      !ok && Flat_hub.total_size flat = Hub_label.total_size labels)

let batched_equals_point =
  Test_util.qcheck "query_many agrees with point queries" ~count:50
    (Gen.connected_gen ~max_n:40 ~max_deg:3 ())
    (fun ((_, _, seed) as params) ->
      let g = Gen.build_connected params in
      let flat = Flat_hub.of_labels (Pll.build g) in
      let pairs = Gen.query_pairs ~seed ~n:(Graph.n g) 32 in
      Flat_hub.query_many flat pairs
      = Array.map (fun (u, v) -> Flat_hub.query flat u v) pairs)

let cached_equals_uncached =
  Test_util.qcheck "cache changes no answer and records hits" ~count:40
    (Gen.connected_gen ~max_n:30 ~max_deg:3 ())
    (fun ((_, _, seed) as params) ->
      let g = Gen.build_connected params in
      let labels = Pll.build g in
      let plain = Flat_hub.of_labels labels in
      let cached = Flat_hub.of_labels ~cache_slots:8 labels in
      let pairs = Gen.query_pairs ~seed ~n:(Graph.n g) 16 in
      (* same stream twice: second pass must hit at least sometimes on
         small graphs, and answers must never change *)
      let a1 = Flat_hub.query_many cached pairs in
      let a2 = Flat_hub.query_many cached pairs in
      let truth = Flat_hub.query_many plain pairs in
      let hits, misses =
        match Flat_hub.cache_stats cached with
        | Some hm -> hm
        | None -> Alcotest.fail "cache_stats missing on cached store"
      in
      a1 = truth && a2 = truth
      && hits + misses = 2 * Array.length pairs
      && Flat_hub.cache_stats plain = None)

let roundtrip_stable =
  Test_util.qcheck "pack -> save -> load -> save is byte-for-byte stable"
    ~count:50 Gen.small_graph_gen (fun params ->
      let g = Gen.build_graph params in
      let labels = Pll.build g in
      let flat = Flat_hub.of_labels labels in
      let bytes = Hub_io.flat_to_bytes flat in
      match Hub_io.flat_of_bytes_res bytes with
      | Error e -> Alcotest.failf "load failed: %s" e.Hub_io.msg
      | Ok flat' ->
          Flat_hub.equal flat flat'
          && Hub_io.flat_to_bytes flat' = bytes
          && Flat_hub.query_many flat'
               (Gen.query_pairs ~seed:7 ~n:(max 1 (Graph.n g)) 8)
             = Flat_hub.query_many flat
                 (Gen.query_pairs ~seed:7 ~n:(max 1 (Graph.n g)) 8))

let to_labels_roundtrip =
  Test_util.qcheck "to_labels inverts of_labels" ~count:40 Gen.small_graph_gen
    (fun params ->
      let g = Gen.build_graph params in
      let labels = Pll.build g in
      let thawed = Flat_hub.to_labels (Flat_hub.of_labels labels) in
      let n = Graph.n g in
      let ok = ref (Hub_label.n thawed = n) in
      for v = 0 to n - 1 do
        if Hub_label.hubs thawed v <> Hub_label.hubs labels v then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "empty labeling" `Quick test_empty_labeling;
    Alcotest.test_case "single vertex" `Quick test_single_vertex;
    Alcotest.test_case "empty hubset" `Quick test_empty_hubset_is_disconnected;
    Alcotest.test_case "query validation" `Quick test_query_validates;
    flat_matches_assoc;
    batched_equals_point;
    cached_equals_uncached;
    roundtrip_stable;
    to_labels_roundtrip;
  ]
