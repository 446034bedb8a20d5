(* The traced per-layer run of the benchmark (see perfbench/README.md).

   It drives one workload's pair stream and op list through each
   layer's public entry point, from the store up to the sharded
   router, and times every call from here: the program itself carries
   no tracing. Every point row also hashes its answers; run.py checks
   that all the hashes equal the ground truth's.

   Usage:
     layers.exe --graph G --store S --kind assoc|mmap --pairs P --ops O
                --spot-check K --out FILE

   P holds one "u v" pair per line, O one --op spelling per line. The
   result is one JSON object written to FILE. *)

open Repro_graph
open Repro_hub
module Backend = Repro_obs.Backend
module Obs = Repro_obs.Obs
module Ops = Repro_obs.Ops
module Metrics = Repro_obs.Metrics
module Oracle = Repro_serve.Resilient_oracle
module Router = Repro_shard.Router
module Wire = Repro_shard.Wire
module Checksum = Repro_par.Checksum

let now () = Monotonic_clock.now ()
let elapsed_ns t0 = Int64.to_float (Int64.sub (now ()) t0)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let lines path =
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (read_file path))

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* exact order statistic of the raw samples (nearest rank) *)
let percentile a p =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  a.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* median wall time in ms of [reps] calls of [f]; the last result *)
let time_reps_ms reps f =
  let last = ref None in
  let ts =
    Array.init reps (fun _ ->
        let t0 = now () in
        last := Some (f ());
        elapsed_ns t0 /. 1e6)
  in
  (median ts, Option.get !last)

let sha_of_ints a =
  Checksum.sha256_hex (String.concat "," (Array.to_list (Array.map string_of_int a)))

let sha_of_strings l = Checksum.sha256_hex (String.concat "\n" l)

(* Point-query rows. After one warm-up pass per row, [rounds] rounds
   each run every row twice, interleaved so that drift in the machine's
   load hits every row alike: an untimed pass (one clock read pair
   around the whole pass) and a traced pass (one pair per call). A
   row's untraced cost is the median of its untimed pass means; its
   percentiles come from all its per-call samples. *)
let rounds = 5
let passes = (2 * rounds) + 1

type row = {
  mean_ns : float;  (** untraced: median of the untimed passes' means *)
  traced_mean_ns : float;  (** median of the traced passes' means *)
  samples : float array;  (** traced: every per-call time *)
  minor_words : float;  (** per query, over the untimed passes *)
  sha : string;
}

let measure_rows pairs (qs : (int -> int -> int) array) =
  let n = Array.length pairs in
  let pass q = Array.iter (fun (u, v) -> ignore (Sys.opaque_identity (q u v))) pairs in
  Array.iter pass qs;
  let rows = Array.length qs in
  let means = Array.make_matrix rows rounds 0. in
  let traced = Array.make_matrix rows rounds 0. in
  let words = Array.make rows 0. in
  let samples = Array.init rows (fun _ -> Array.make (rounds * n) 0.) in
  let answers = Array.init rows (fun _ -> Array.make n 0) in
  for p = 0 to rounds - 1 do
    Array.iteri
      (fun r q ->
        let w0 = Gc.minor_words () in
        let t0 = now () in
        pass q;
        means.(r).(p) <- elapsed_ns t0 /. float_of_int n;
        words.(r) <- words.(r) +. Gc.minor_words () -. w0;
        let total = ref 0. in
        Array.iteri
          (fun i (u, v) ->
            let t0 = now () in
            answers.(r).(i) <- q u v;
            let dt = elapsed_ns t0 in
            samples.(r).((p * n) + i) <- dt;
            total := !total +. dt)
          pairs;
        traced.(r).(p) <- !total /. float_of_int n)
      qs
  done;
  Array.init rows (fun r ->
      {
        mean_ns = median means.(r);
        traced_mean_ns = median traced.(r);
        samples = samples.(r);
        minor_words = words.(r) /. float_of_int (rounds * n);
        sha = sha_of_ints answers.(r);
      })

(* the CLI's op spellings map to these metric names *)
let op_kind = function
  | Ops.Eccentricity _ -> "ecc"
  | Ops.Top_k_nearest _ -> "top-k"
  | Ops.One_to_many _ -> "one-to-many"
  | Ops.Batch _ -> "batch"
  | r -> Ops.name r

let op_kinds = [ "ecc"; "top-k"; "one-to-many"; "batch" ]

(* per-kind median ns of evaluating every op with [eval]; digest of
   the rendered responses in request order *)
let measure_ops ops eval =
  let times = Hashtbl.create 8 in
  let rendered =
    List.map
      (fun req ->
        let t0 = now () in
        let r = eval req in
        Hashtbl.add times (op_kind req) (elapsed_ns t0);
        r)
      ops
  in
  let per_kind k = median (Array.of_list (Hashtbl.find_all times k)) in
  (List.map (fun k -> (k, per_kind k)) op_kinds, sha_of_strings rendered)

let () =
  let graph = ref "" and store = ref "" and kind = ref "assoc" in
  let pairs_file = ref "" and ops_file = ref "" and out = ref "" in
  let spot_check = ref 1 in
  Arg.parse
    [
      ("--graph", Arg.Set_string graph, "FILE graph edge list");
      ("--store", Arg.Set_string store, "FILE packed HUBFLAT1 store");
      ("--kind", Arg.Set_string kind, "assoc|mmap the CLI's serving store kind");
      ("--pairs", Arg.Set_string pairs_file, "FILE one 'u v' pair per line");
      ("--ops", Arg.Set_string ops_file, "FILE one --op spelling per line");
      ("--spot-check", Arg.Set_int spot_check, "K the workload's serve loop cadence");
      ("--out", Arg.Set_string out, "FILE result JSON");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "layers.exe: the benchmark's traced per-layer run";
  let metrics = ref [] and digests = ref [] in
  let put name v = metrics := (name, v) :: !metrics in
  let digest name d = digests := (name, d) :: !digests in
  let pairs =
    Array.of_list
      (List.map (fun l -> Scanf.sscanf l " %d %d" (fun u v -> (u, v))) (lines !pairs_file))
  in
  let n_pairs = Array.length pairs in
  let ops =
    List.map
      (fun s ->
        match Ops.request_of_string s with
        | Ok r -> r
        | Error e -> failwith ("layers: bad op " ^ s ^ ": " ^ e))
      (lines !ops_file)
  in
  (* Graph_io *)
  let graph_text = read_file !graph in
  let parse_ms, g =
    time_reps_ms 5 (fun () ->
        match Graph_io.of_string_res graph_text with
        | Ok g -> g
        | Error e -> failwith (Graph_io.string_of_parse_error e))
  in
  put "graph.parse_ms" parse_ms;
  (* Hub_io / Mmap_hub.load_res: the load the CLI's store kind does *)
  let packed = read_file !store in
  let thaw () =
    match Hub_io.flat_of_bytes_res packed with
    | Ok flat -> flat
    | Error e -> failwith (Graph_io.string_of_parse_error e)
  in
  let map () =
    match Mmap_hub.load_res !store with
    | Ok m -> m
    | Error e -> failwith (Mmap_hub.error_to_string e)
  in
  let is_mmap = !kind = "mmap" in
  let load_ms, () =
    time_reps_ms 5 (fun () ->
        if is_mmap then ignore (Sys.opaque_identity (map ()))
        else ignore (Sys.opaque_identity (Flat_hub.to_labels (thaw ()))))
  in
  put "store.load_ms" load_ms;
  let flat = thaw () in
  let labels = Flat_hub.to_labels flat in
  let mm = map () in
  (* Hub_verify.structural: the check the default (assoc) path runs *)
  let verify_ms, () =
    time_reps_ms 3 (fun () ->
        match Hub_verify.structural g labels with
        | Ok () -> ()
        | Error e -> failwith ("layers: structural check failed: " ^ e))
  in
  put "store.verify_ms" verify_ms;
  (* Router / Worker / Supervisor. Router.create forks, and OCaml 5
     forbids fork once a domain exists, so every router is made here,
     before any op builds a Hub_index over the default domain pool. *)
  let router_cfg shards =
    {
      (Router.default_config g) with
      Router.labels = (if is_mmap then None else Some labels);
      mmap = (if is_mmap then Some mm else None);
      shards;
      spot_check_every = 1 (* the CLI's default for serve router *);
      seed = 20190721;
    }
  in
  let spawn_ms, () =
    time_reps_ms 3 (fun () -> Router.shutdown (Router.create (router_cfg 2)))
  in
  put "router.spawn_ms" spawn_ms;
  (* incidents summed over both routers *)
  let retries = ref 0 and restarts = ref 0 and degraded = ref 0 in
  let router_row shards =
    let r = Router.create (router_cfg shards) in
    let answers = Array.make n_pairs 0 in
    let t0 = now () in
    let i = ref 0 in
    while !i < n_pairs do
      let len = min 64 (n_pairs - !i) in
      let batch = Router.query_batch r (Array.sub pairs !i len) in
      Array.iteri
        (fun j (a : Router.answer) ->
          answers.(!i + j) <- a.Router.dist;
          if a.Router.degraded then incr degraded)
        batch;
      i := !i + len
    done;
    let ns = elapsed_ns t0 /. float_of_int n_pairs in
    let op_times, op_sha =
      measure_ops ops (fun req ->
          let res = Router.op r req in
          if res.Router.degraded then incr degraded;
          Ops.response_to_string res.Router.response)
    in
    let counter name = Metrics.counter_value (Metrics.counter (Router.metrics r) name) in
    retries := !retries + counter "router.retries";
    restarts := !restarts + counter "router.restarts";
    Router.shutdown r;
    digest (Printf.sprintf "router.shards%d" shards) (sha_of_ints answers);
    digest (Printf.sprintf "router.shards%d.ops" shards) op_sha;
    put (Printf.sprintf "router.query_ns_per_query.shards%d" shards) ns;
    (ns, op_times)
  in
  let router1_ns, _ = router_row 1 in
  let _, router_op_times = router_row 2 in
  put "router.retries" (float_of_int !retries);
  put "router.restarts" (float_of_int !restarts);
  put "router.degraded" (float_of_int !degraded);
  (* Wire: the frames one 64-pair request and its answers cost *)
  let wire_ns, wire_bytes =
    let bytes = ref 0 in
    let ok = function Ok x -> x | Error e -> failwith (Wire.error_to_string e) in
    let codec (u, v) id =
      let req = Wire.encode_request (Wire.Query { id; u; v }) in
      let payload, _ = ok (Wire.decode_frame req ~pos:0) in
      ignore (Sys.opaque_identity (ok (Wire.request_of_payload payload)));
      let resp =
        Wire.encode_response
          (Wire.Answer { id; dist = u + v; source = Wire.source_primary; degraded = false })
      in
      let payload, _ = ok (Wire.decode_frame resp ~pos:0) in
      ignore (Sys.opaque_identity (ok (Wire.response_of_payload payload)));
      String.length req + String.length resp
    in
    Array.iteri (fun i p -> ignore (codec p i)) pairs;
    let t0 = now () in
    Array.iteri (fun i p -> bytes := !bytes + codec p i) pairs;
    (elapsed_ns t0 /. float_of_int n_pairs, float_of_int !bytes /. float_of_int n_pairs)
  in
  put "wire.codec_ns_per_query" wire_ns;
  put "wire.bytes_per_query" wire_bytes;
  (* the store's own point query, then each wrapper the CLI adds *)
  let store_query, size =
    if is_mmap then (Mmap_hub.query mm, Mmap_hub.size mm)
    else (Hub_label.query labels, Hub_label.size labels)
  in
  let primary () =
    if is_mmap then Oracle.mmap_primary mm else Oracle.hub_primary labels
  in
  let registry = Metrics.create () in
  let instrumented () = Obs.instrument registry (primary ()) in
  (* the resilient oracle exactly as 'serve loop' calls it per line *)
  let oracle k =
    Oracle.create ~spot_check_every:k ~quarantine_after:3 ~metrics:registry
      ~primary:(instrumented ()) g
  in
  let serve_query o =
    let b = Obs.instrument ~prefix:"serve" registry (Oracle.backend o) in
    fun u v -> fst (Backend.query_detailed b u v)
  in
  let oracle1 = oracle 1 in
  let rows =
    measure_rows pairs
      [|
        store_query;
        Backend.query (primary ());
        Backend.query (instrumented ());
        serve_query (oracle 0);
        serve_query oracle1;
      |]
  in
  let store_row = rows.(0) and backend_row = rows.(1) and obs_row = rows.(2) in
  let k0_row = rows.(3) and k1_row = rows.(4) in
  List.iteri
    (fun i name -> digest name rows.(i).sha)
    [ "store"; "backend"; "obs"; "oracle.k0"; "oracle.k1" ];
  put "store.query_ns_p50" (percentile store_row.samples 0.50);
  put "store.query_ns_p99" (percentile store_row.samples 0.99);
  put "store.query_samples" (float_of_int (Array.length store_row.samples));
  put "store.entries_per_query"
    (float_of_int (Array.fold_left (fun acc (u, v) -> acc + size u + size v) 0 pairs)
    /. float_of_int n_pairs);
  put "store.minor_words_per_query" store_row.minor_words;
  let s = Oracle.stats oracle1 in
  put "backend.self_ns" (backend_row.mean_ns -. store_row.mean_ns);
  put "obs.self_ns" (obs_row.mean_ns -. backend_row.mean_ns);
  put "oracle.self_ns" (k0_row.mean_ns -. obs_row.mean_ns);
  put "oracle.spot_check_ns" (k1_row.mean_ns -. k0_row.mean_ns);
  (* counts per pass over the stream *)
  let per_pass c = float_of_int c /. float_of_int passes in
  put "oracle.spot_checks" (per_pass s.Oracle.spot_checks);
  put "oracle.disagreements" (per_pass s.Oracle.disagreements);
  put "oracle.fallback_answers" (per_pass s.Oracle.fallback_answers);
  put "oracle.spot_check_yield"
    (if s.Oracle.spot_checks = 0 then 0.
     else float_of_int s.Oracle.disagreements /. float_of_int s.Oracle.spot_checks);
  let top_row = if !spot_check = 0 then k0_row else k1_row in
  put "store.mean_ns" store_row.mean_ns;
  put "stack.mean_ns" top_row.mean_ns;
  put "trace.overhead_frac" ((top_row.traced_mean_ns -. top_row.mean_ns) /. top_row.mean_ns);
  put "router.self_ns" (router1_ns -. k1_row.mean_ns -. wire_ns);
  (* the bin's per-line work without the oracle: read, parse, print
     with a flush per answer, as 'serve loop --echo' does *)
  let answers = Hashtbl.create n_pairs in
  Array.iter (fun (u, v) -> Hashtbl.replace answers (u, v) (u + v)) pairs;
  let cli_loop () =
    (* answers go into a pipe that a forked reader drains, as the
       benchmark drains the CLI's stdout; forking is still safe here *)
    let r, w = Unix.pipe () in
    let reader =
      match Unix.fork () with
      | 0 ->
          Unix.close w;
          let buf = Bytes.create 65536 in
          while Unix.read r buf 0 65536 > 0 do
            (* batch the reads as run.py's stream reader does *)
            Unix.sleepf 0.0005
          done;
          Unix._exit 0
      | pid ->
          Unix.close r;
          pid
    in
    let ic = open_in !pairs_file and oc = Unix.out_channel_of_descr w in
    let ppf = Format.formatter_of_out_channel oc in
    let t0 = now () in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" && line.[0] <> '#' then
           let u, v = Scanf.sscanf line " %d %d" (fun u v -> (u, v)) in
           Format.fprintf ppf "%d %d %d %s@." u v (Hashtbl.find answers (u, v)) "primary"
       done
     with End_of_file -> ());
    let ns = elapsed_ns t0 /. float_of_int n_pairs in
    close_in ic;
    close_out oc;
    ignore (Unix.waitpid [] reader);
    ns
  in
  let cli_loop_ns = median (Array.init rounds (fun _ -> cli_loop ())) in
  put "cli.loop_ns" cli_loop_ns;
  (* Ops / Hub_index via the store's native ops handle *)
  let ops_handle () = if is_mmap then Mmap_hub.ops mm else Flat_hub.ops flat in
  let index_ms =
    let h = ops_handle () in
    let req = List.find (fun r -> op_kind r = "ecc") ops in
    let t0 = now () in
    ignore (Backend.op h req);
    let first = elapsed_ns t0 in
    let t0 = now () in
    ignore (Backend.op h req);
    (first -. elapsed_ns t0) /. 1e6
  in
  put "ops.index_build_ms" index_ms;
  let h = ops_handle () in
  ignore (Backend.op h (List.hd ops));
  let op_times, op_sha =
    measure_ops ops (fun req -> Ops.response_to_string (Backend.op h req))
  in
  digest "ops" op_sha;
  List.iter
    (fun (k, ns) ->
      put (Printf.sprintf "ops.%s.ns" k) ns;
      put (Printf.sprintf "router.op_overhead.%s" k) (List.assoc k router_op_times -. ns))
    op_times;
  (* Pll, Flat_hub.of_labels, Hub_io.flat_to_bytes: what 'label --pack'
     does after generating the graph *)
  let t0 = now () in
  let built = Pll.build g in
  put "build.pll_s" (elapsed_ns t0 /. 1e9);
  let t0 = now () in
  let bytes = Hub_io.flat_to_bytes (Flat_hub.of_labels built) in
  put "build.pack_s" (elapsed_ns t0 /. 1e9);
  put "build.label_entries" (float_of_int (Hub_label.total_size built));
  put "build.avg_label_size" (Hub_label.avg_size built);
  digest "build.store" (Checksum.sha256_hex bytes);
  digest "store.file" (Checksum.sha256_hex packed);
  let obj kvs fmt =
    "{" ^ String.concat ", " (List.rev_map (fun (k, v) -> Printf.sprintf "%S: %s" k (fmt v)) kvs) ^ "}"
  in
  let oc = open_out !out in
  Printf.fprintf oc "{\"metrics\": %s, \"digests\": %s}\n"
    (obj !metrics (Printf.sprintf "%.17g"))
    (obj !digests (Printf.sprintf "%S"));
  close_out oc
