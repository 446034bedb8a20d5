(* Tests for the resilient serving layer: budgeted search, deterministic
   fault injection, the degradation chain, quarantine, and Hub_verify.

   The acceptance scenario of docs/ROBUSTNESS.md lives in
   [test_acceptance_corrupted_backend]: with 20% of queries corrupted
   at the hub-label backend, the resilient oracle still returns the
   exact BFS distance for every sampled pair, quarantines the backend,
   and logs nonzero fallback and quarantine counts. *)

open Repro_graph
open Repro_hub
open Repro_serve

let rng () = Random.State.make [| 0xFA17 |]
let sample_graph () = Generators.random_connected (rng ()) ~n:60 ~m:120

(* ----- Budget_search ------------------------------------------------- *)

let test_budget_search_exact () =
  let g = Generators.random_connected (rng ()) ~n:30 ~m:45 in
  let n = Graph.n g in
  for u = 0 to n - 1 do
    let dist = Traversal.bfs g u in
    for v = 0 to n - 1 do
      match Budget_search.bidirectional g ~budget:max_int u v with
      | Some d -> Test_util.check_int "bidirectional = bfs" dist.(v) d
      | None -> Alcotest.fail "unlimited budget must not exhaust"
    done
  done

let test_budget_search_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  (match Budget_search.bidirectional g ~budget:max_int 0 3 with
  | Some d -> Test_util.check_bool "inf" false (Dist.is_finite d)
  | None -> Alcotest.fail "must certify disconnection");
  match Budget_search.bidirectional g ~budget:max_int 0 1 with
  | Some d -> Test_util.check_int "adjacent" 1 d
  | None -> Alcotest.fail "must answer"

let test_budget_search_exhaustion () =
  let g = Generators.path 200 in
  (match Budget_search.bidirectional g ~budget:4 0 199 with
  | None -> ()
  | Some _ -> Alcotest.fail "budget 4 cannot certify a distance-199 pair");
  match Budget_search.bidirectional g ~budget:4 0 1 with
  | Some d -> Test_util.check_int "cheap pair within budget" 1 d
  | None -> Alcotest.fail "adjacent pair fits in budget"

(* The list-based search the workspace version replaced, kept verbatim
   as the reference except that it also returns how many vertices it
   expanded (the budget unit). *)
let reference_bidirectional g ~budget s t =
  let n = Graph.n g in
  if s < 0 || s >= n || t < 0 || t >= n then
    invalid_arg "Budget_search.bidirectional";
  if s = t then (Some 0, 0)
  else begin
    let dist_f = Array.make n (-1) and dist_b = Array.make n (-1) in
    dist_f.(s) <- 0;
    dist_b.(t) <- 0;
    let frontier_f = ref [ s ] and frontier_b = ref [ t ] in
    let df = ref 0 and db = ref 0 in
    let steps = ref 0 in
    let best = ref Dist.inf in
    let expand frontier dist other depth =
      let next = ref [] in
      List.iter
        (fun u ->
          incr steps;
          if !steps > budget then raise Exit;
          Graph.iter_neighbors g u (fun v ->
              if dist.(v) < 0 then begin
                dist.(v) <- !depth + 1;
                if other.(v) >= 0 then
                  best := min !best (dist.(v) + other.(v));
                next := v :: !next
              end))
        !frontier;
      frontier := !next;
      incr depth
    in
    match
      while !frontier_f <> [] && !frontier_b <> [] && !df + !db < !best do
        if List.length !frontier_f <= List.length !frontier_b then
          expand frontier_f dist_f dist_b df
        else expand frontier_b dist_b dist_f db
      done
    with
    | () -> (Some (if Dist.is_finite !best then !best else Dist.inf), !steps)
    | exception Exit -> (None, !steps)
  end

(* One workspace serves a long mixed sequence — self pairs,
   disconnected pairs, searches aborted mid-level, full searches and
   single-source BFS runs — and every answer matches the reference at
   every budget up to one past what the full search expands, so no
   search sees marks left by an earlier one. *)
let test_workspace_matches_reference =
  Test_util.qcheck ~count:150
    "reused workspace matches the list-based search"
    Gen.small_graph_gen (fun params ->
      let g = Gen.build_graph params in
      let n = Graph.n g in
      let ws = Budget_search.workspace g in
      let r = Random.State.make [| n |] in
      let show = function Some d -> string_of_int d | None -> "None" in
      for k = 0 to 24 do
        let s = Random.State.int r n in
        let t = if k mod 5 = 0 then s else Random.State.int r n in
        let _, expansions = reference_bidirectional g ~budget:max_int s t in
        for budget = 0 to expansions + 1 do
          let want, _ = reference_bidirectional g ~budget s t in
          let got = Budget_search.search ws g ~budget s t in
          if got <> want then
            QCheck2.Test.fail_reportf "%d->%d budget %d: got %s, want %s" s t
              budget (show got) (show want)
        done;
        let bfs = Budget_search.bfs ws g s t in
        if bfs <> (Traversal.bfs g s).(t) then
          QCheck2.Test.fail_reportf "bfs %d->%d: got %d" s t bfs
      done;
      true)

(* ----- Fault_injector ------------------------------------------------ *)

let test_injector_deterministic () =
  let run () =
    let inj = Fault_injector.create ~seed:11 ~fraction:0.5 Fault_injector.Corrupt in
    let f = Fault_injector.wrap inj (fun u v -> (10 * u) + v) in
    let outs = List.init 50 (fun i -> f i (i + 1)) in
    (outs, Fault_injector.injected inj)
  in
  let a, ia = run () and b, ib = run () in
  Test_util.check_bool "same outputs" true (a = b);
  Test_util.check_int "same injected count" ia ib;
  Test_util.check_bool "some injected" true (ia > 0);
  Test_util.check_bool "not all injected" true (ia < 50)

let test_injector_fractions () =
  let count fraction mode =
    let inj = Fault_injector.create ~seed:3 ~fraction mode in
    let f = Fault_injector.wrap inj (fun _ _ -> 7) in
    for i = 0 to 99 do
      ignore (try f i i with Fault_injector.Injected_failure -> -1)
    done;
    Fault_injector.injected inj
  in
  Test_util.check_int "fraction 0" 0 (count 0.0 Fault_injector.Corrupt);
  Test_util.check_int "fraction 1" 100 (count 1.0 Fault_injector.Fail)

let test_injector_corrupts_value () =
  let inj = Fault_injector.create ~seed:5 ~fraction:1.0 Fault_injector.Corrupt in
  let f = Fault_injector.wrap inj (fun _ _ -> 10) in
  for i = 0 to 20 do
    let d = f i i in
    Test_util.check_bool "corrupted differs" true (d <> 10 && d >= 0)
  done

let test_corrupt_labels () =
  let g = sample_graph () in
  let labels = Pll.build g in
  let bad = Fault_injector.corrupt_labels ~seed:1 ~fraction:0.3 labels in
  Test_util.check_int "same n" (Hub_label.n labels) (Hub_label.n bad);
  Test_util.check_int "same total" (Hub_label.total_size labels)
    (Hub_label.total_size bad);
  Test_util.check_bool "clean verifies" true (Cover.verify g labels);
  Test_util.check_bool "corrupted fails cover" false (Cover.verify g bad)

(* ----- Resilient_oracle ---------------------------------------------- *)

let truth_table g =
  Array.init (Graph.n g) (fun u -> Traversal.bfs g u)

let random_pairs r n k = List.init k (fun _ -> (Random.State.int r n, Random.State.int r n))

let test_resilient_clean_primary () =
  let g = sample_graph () in
  let labels = Pll.build g in
  let oracle = Resilient_oracle.create ~spot_check_every:1 ~labels g in
  let truth = truth_table g in
  let r = rng () in
  List.iter
    (fun (u, v) ->
      Test_util.check_int "exact" truth.(u).(v) (Resilient_oracle.query oracle u v))
    (random_pairs r (Graph.n g) 200);
  let s = Resilient_oracle.stats oracle in
  Test_util.check_int "no disagreements" 0 s.Resilient_oracle.disagreements;
  Test_util.check_int "no fallbacks" 0 s.Resilient_oracle.fallback_answers;
  Test_util.check_int "no quarantine" 0 s.Resilient_oracle.quarantines;
  Test_util.check_int "all primary" 200 s.Resilient_oracle.primary_answers;
  Test_util.check_bool "not quarantined" false (Resilient_oracle.quarantined oracle)

(* The ISSUE acceptance criterion. *)
let test_acceptance_corrupted_backend () =
  let g = sample_graph () in
  let labels = Pll.build g in
  let inj = Fault_injector.create ~seed:7 ~fraction:0.2 Fault_injector.Corrupt in
  let oracle =
    Resilient_oracle.create ~spot_check_every:1 ~quarantine_after:3
      ~primary:
        (Repro_obs.Backend.make ~name:"faulty-hub" ~space_words:0
           (Fault_injector.wrap inj (Hub_label.query labels)))
      g
  in
  let truth = truth_table g in
  let r = rng () in
  List.iter
    (fun (u, v) ->
      Test_util.check_int "exact under 20% corruption" truth.(u).(v)
        (Resilient_oracle.query oracle u v))
    (random_pairs r (Graph.n g) 300);
  let s = Resilient_oracle.stats oracle in
  Test_util.check_bool "faults were injected" true (Fault_injector.injected inj > 0);
  Test_util.check_bool "nonzero disagreements" true
    (s.Resilient_oracle.disagreements > 0);
  Test_util.check_bool "nonzero fallbacks" true
    (s.Resilient_oracle.fallback_answers > 0);
  Test_util.check_int "quarantined once" 1 s.Resilient_oracle.quarantines;
  Test_util.check_bool "backend quarantined" true
    (Resilient_oracle.quarantined oracle);
  Test_util.check_int "accounting adds up" s.Resilient_oracle.queries
    (s.Resilient_oracle.primary_answers + s.Resilient_oracle.fallback_answers)

let test_resilient_failing_backend () =
  let g = sample_graph () in
  let labels = Pll.build g in
  let inj = Fault_injector.create ~seed:9 ~fraction:0.3 Fault_injector.Fail in
  let oracle =
    Resilient_oracle.create ~spot_check_every:1 ~quarantine_after:5
      ~primary:
        (Repro_obs.Backend.make ~name:"crashy-hub" ~space_words:0
           (Fault_injector.wrap inj (Hub_label.query labels)))
      g
  in
  let truth = truth_table g in
  let r = rng () in
  List.iter
    (fun (u, v) ->
      Test_util.check_int "exact under failures" truth.(u).(v)
        (Resilient_oracle.query oracle u v))
    (random_pairs r (Graph.n g) 100);
  let s = Resilient_oracle.stats oracle in
  Test_util.check_bool "faults contained" true (s.Resilient_oracle.faults > 0);
  Test_util.check_bool "quarantined" true (Resilient_oracle.quarantined oracle)

let test_resilient_budget_degrades_to_bfs () =
  let g = Generators.path 300 in
  let oracle = Resilient_oracle.create ~step_budget:8 g in
  Test_util.check_int "far pair exact via BFS" 299
    (Resilient_oracle.query oracle 0 299);
  let s = Resilient_oracle.stats oracle in
  Test_util.check_bool "budget was exhausted" true
    (s.Resilient_oracle.budget_exhausted > 0);
  Test_util.check_int "served by fallback" 1 s.Resilient_oracle.fallback_answers

(* Both fallback stages on the oracle's workspace: a budget of 8 on the
   200-vertex path sends every far pair to the single-source stage.
   The counts are the ones the fresh-array search produced. *)
let test_resilient_step_budget_stats () =
  let g = Generators.path 200 in
  let truth = truth_table g in
  let run oracle =
    let sources = Array.make 3 0 in
    List.iter
      (fun (u, v) ->
        let d, src = Resilient_oracle.query_detailed oracle u v in
        Test_util.check_int "exact" truth.(u).(v) d;
        let i =
          Resilient_oracle.(
            match src with Primary -> 0 | Bidirectional -> 1 | Bfs -> 2)
        in
        sources.(i) <- sources.(i) + 1)
      (random_pairs (rng ()) (Graph.n g) 300);
    (Resilient_oracle.stats oracle, Array.to_list sources)
  in
  let check name (s, sources) ~budget_exhausted =
    Test_util.check_int (name ^ " queries") 300 s.Resilient_oracle.queries;
    Test_util.check_int (name ^ " primary") 0 s.Resilient_oracle.primary_answers;
    Test_util.check_int (name ^ " fallback") 300 s.Resilient_oracle.fallback_answers;
    Test_util.check_int (name ^ " budget_exhausted") budget_exhausted
      s.Resilient_oracle.budget_exhausted;
    Test_util.check_int (name ^ " spot checks") 0 s.Resilient_oracle.spot_checks;
    Alcotest.(check (list int)) (name ^ " sources") [ 0; 24; 276 ] sources
  in
  check "search-only"
    (run (Resilient_oracle.create ~step_budget:8 g))
    ~budget_exhausted:276;
  (* the label scan also exceeds 8 on every pair: one more skip each *)
  check "labelled"
    (run (Resilient_oracle.create ~step_budget:8 ~labels:(Pll.build g) g))
    ~budget_exhausted:576

(* Spot-checking every answer allocates nothing on the major heap once
   the oracle's workspace exists (the fresh-array search allocated two
   n-word arrays per check: ~4000 words at n = 2000). *)
let test_spot_check_allocation_pin () =
  let g = Generators.random_connected (rng ()) ~n:2000 ~m:4000 in
  let oracle =
    Resilient_oracle.create ~spot_check_every:1 ~labels:(Pll.build g) g
  in
  let r = rng () in
  let run k =
    for _ = 1 to k do
      let u = Random.State.int r 2000 and v = Random.State.int r 2000 in
      ignore (Resilient_oracle.query oracle u v : int)
    done
  in
  run 5000;
  let before = (Gc.quick_stat ()).Gc.major_words in
  run 5000;
  let per_query = ((Gc.quick_stat ()).Gc.major_words -. before) /. 5000. in
  Test_util.check_bool
    (Printf.sprintf "%.1f major words/query < 8" per_query)
    true (per_query < 8.);
  let s = Resilient_oracle.stats oracle in
  Test_util.check_int "every answer checked" 10_000 s.Resilient_oracle.spot_checks;
  Test_util.check_int "no disagreements" 0 s.Resilient_oracle.disagreements

let test_resilient_label_budget () =
  let g = sample_graph () in
  let labels = Pll.build g in
  (* A scan budget of 1 can never fit |S(u)| + |S(v)|: the primary is
     skipped on budget grounds (no strike), answers stay exact. *)
  let oracle = Resilient_oracle.create ~step_budget:1 ~labels g in
  let truth = truth_table g in
  ignore (Resilient_oracle.query oracle 0 5);
  Test_util.check_int "exact" truth.(0).(5) (Resilient_oracle.query oracle 0 5);
  let s = Resilient_oracle.stats oracle in
  Test_util.check_bool "budget exhaustion logged" true
    (s.Resilient_oracle.budget_exhausted > 0);
  Test_util.check_int "no strikes for budget skips" 0
    s.Resilient_oracle.disagreements;
  Test_util.check_bool "not quarantined" false (Resilient_oracle.quarantined oracle)

let test_resilient_validation () =
  let g = sample_graph () in
  let oracle = Resilient_oracle.create g in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Resilient_oracle.query: vertex out of range") (fun () ->
      ignore (Resilient_oracle.query oracle 0 (Graph.n g)));
  let s = Resilient_oracle.stats oracle in
  Test_util.check_int "validation failure logged" 1
    s.Resilient_oracle.validation_failures;
  Test_util.check_int "not counted as a query" 0 s.Resilient_oracle.queries

(* ----- Hub_verify ---------------------------------------------------- *)

let test_hub_verify_clean () =
  let g = sample_graph () in
  let labels = Pll.build g in
  (match Hub_verify.structural g labels with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let report = Hub_verify.verify ~samples:6 ~rng:(rng ()) g labels in
  Test_util.check_bool "clean labeling verifies" true (Hub_verify.ok report);
  Test_util.check_int "entries" (Hub_label.total_size labels)
    report.Hub_verify.entries

let test_hub_verify_corrupted () =
  let g = sample_graph () in
  let labels = Pll.build g in
  let bad = Fault_injector.corrupt_labels ~seed:2 ~fraction:0.25 labels in
  let report = Hub_verify.verify ~samples:10 ~rng:(rng ()) g bad in
  Test_util.check_bool "corruption detected" false (Hub_verify.ok report);
  Test_util.check_bool "stored mismatches seen" true
    (report.Hub_verify.stored_mismatches > 0
    || report.Hub_verify.cover_violations > 0)

let test_hub_verify_structural () =
  let g = sample_graph () in
  let mismatched = Hub_label.make ~n:3 [| [ (0, 0) ]; [ (1, 0) ]; [ (2, 0) ] |] in
  (match Hub_verify.structural g mismatched with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "n mismatch must fail structural check");
  let impossible =
    Hub_label.make ~n:(Graph.n g)
      (Array.init (Graph.n g) (fun v -> [ (v, if v = 0 then 10_000 else 0) ]))
  in
  match Hub_verify.structural g impossible with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "impossible stored distance must fail"

let suite =
  [
    Alcotest.test_case "budgeted bidirectional matches BFS" `Quick
      test_budget_search_exact;
    Alcotest.test_case "budgeted search certifies disconnection" `Quick
      test_budget_search_disconnected;
    Alcotest.test_case "budget exhaustion returns None" `Quick
      test_budget_search_exhaustion;
    test_workspace_matches_reference;
    Alcotest.test_case "fault injector is deterministic" `Quick
      test_injector_deterministic;
    Alcotest.test_case "fault injector fraction endpoints" `Quick
      test_injector_fractions;
    Alcotest.test_case "corrupt mode returns wrong values" `Quick
      test_injector_corrupts_value;
    Alcotest.test_case "corrupt_labels breaks exactness only" `Quick
      test_corrupt_labels;
    Alcotest.test_case "clean primary serves everything" `Quick
      test_resilient_clean_primary;
    Alcotest.test_case "ACCEPTANCE: exact under 20% corruption" `Quick
      test_acceptance_corrupted_backend;
    Alcotest.test_case "failing backend is contained" `Quick
      test_resilient_failing_backend;
    Alcotest.test_case "step budget degrades to BFS" `Quick
      test_resilient_budget_degrades_to_bfs;
    Alcotest.test_case "step budget 8 on a path: stats pinned" `Quick
      test_resilient_step_budget_stats;
    Alcotest.test_case "spot checks allocate no major words" `Quick
      test_spot_check_allocation_pin;
    Alcotest.test_case "label-scan budget skips primary" `Quick
      test_resilient_label_budget;
    Alcotest.test_case "query validation is logged" `Quick
      test_resilient_validation;
    Alcotest.test_case "Hub_verify accepts clean labelings" `Quick
      test_hub_verify_clean;
    Alcotest.test_case "Hub_verify flags corrupted labelings" `Quick
      test_hub_verify_corrupted;
    Alcotest.test_case "Hub_verify structural checks" `Quick
      test_hub_verify_structural;
  ]
