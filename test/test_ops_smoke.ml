(* End-to-end smoke for the ops query surface
   (`dune build @ops-smoke`, part of @ci).

   Drives every aggregate operation through the real CLI, end to end:

   1. `hubhard label --pack` writes a HUBFLAT1 file + sidecar graph;
   2. `serve query --op` answers every operation in assoc, flat and
      mmap modes — the answer lines are byte-identical across all
      three stores and across --jobs values, pinned by sha256;
   3. a 3-shard `serve router --op` run (fork spawn, hash partition)
      produces the same answer bytes as the in-process stores, and two
      same-seed runs are byte-identical to each other;
   4. the shared store-kind resolver rejects the documented bad
      combinations with exit 124 on every subcommand that takes them,
      and bad --op spellings exit 124 / out-of-range operands exit 11;
   5. the store boundary, table-driven over serve query | stats | loop
      | router | trace and every store flag each accepts: a store whose
      n differs from the graph exits 11, a file of the wrong packed
      format or with an overflowing header exits 10 (serve check
      too), a conflicting flag pair exits 124, and --cache-slots or
      --flat without a packed store to serve exit 124.

   Runs as its own executable: the router forks, so this binary stays
   strictly domain-free. The CLI path arrives as argv.(1). *)

let passed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("ops-smoke FAIL: " ^ s);
      exit 1)
    fmt

let check name b = if b then incr passed else fail "%s" name

let cli =
  if Array.length Sys.argv < 2 then
    fail "usage: %s <path-to-hubhard-cli>" Sys.argv.(0)
  else Sys.argv.(1)

let run_cli args =
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process cli
      (Array.of_list (cli :: args))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s -> fail "CLI killed by signal %d" s
    | Unix.WSTOPPED _ -> fail "CLI stopped"
  in
  (code, List.rev !lines)

(* ----- 1. pack a labeling through the CLI ---------------------------- *)

let packed_file = Filename.temp_file "ops_smoke" ".bin"
let graph_file = packed_file ^ ".graph"

let () =
  let code, _ =
    run_cli
      [
        "label"; "--graph"; "sparse"; "-n"; "180"; "--seed"; "23"; "--pack";
        packed_file;
      ]
  in
  check "pack: label --pack exits 0" (code = 0);
  check "pack: packed file exists" (Sys.file_exists packed_file);
  check "pack: sidecar graph exists" (Sys.file_exists graph_file);
  Printf.printf "scenario 1 (CLI pack): ok\n%!"

(* ----- 2. every op, every store, identical bytes --------------------- *)

(* Answer lines are "req -> resp source"; stores differ only in the
   source column, so strip it before comparing. *)
let op_answers lines =
  List.filter_map
    (fun line ->
      match String.index_opt line '>' with
      | Some _ ->
          let parts = String.split_on_char ' ' line in
          (match List.rev parts with
          | _source :: rest -> Some (String.concat " " (List.rev rest))
          | [] -> None)
      | None -> None)
    lines

let ops_args =
  [
    "--op"; "dist:0,5";
    "--op"; "batch:0,1;2,3;7,7";
    "--op"; "one-to-many:2:0,7,11,2";
    "--op"; "many-to-many:1,2:3,4,5";
    "--op"; "top-k:5,6";
    "--op"; "ecc:3";
    "--op"; "farthest:9";
    "--op"; "diam";
  ]

let serve_query extra =
  run_cli
    ([
       "serve"; "query"; "--graph-file"; graph_file; "--labels-file";
       packed_file;
     ]
    @ ops_args @ extra)

let sha256 answers =
  Repro_par.Checksum.sha256_hex (String.concat "\n" answers)

let assoc_answers =
  let code, lines = serve_query [] in
  check "assoc: exits 0" (code = 0);
  op_answers lines

let () =
  check "assoc: 8 answers" (List.length assoc_answers = 8);
  let runs =
    [
      ("flat", [ "--flat" ]);
      ("mmap", [ "--mmap" ]);
      ("flat --jobs 1", [ "--flat"; "--jobs"; "1" ]);
      ("mmap --jobs 3", [ "--mmap"; "--jobs"; "3" ]);
    ]
  in
  let h0 = sha256 assoc_answers in
  List.iter
    (fun (name, extra) ->
      let code, lines = serve_query extra in
      check (name ^ ": exits 0") (code = 0);
      let h = sha256 (op_answers lines) in
      if h <> h0 then fail "%s: answer sha256 %s <> assoc %s" name h h0;
      incr passed)
    runs;
  Printf.printf "scenario 2 (every op, assoc = flat = mmap, any --jobs, sha256 %s): ok\n%!"
    (String.sub h0 0 12)

(* ----- 3. 3-shard router merge, byte-identical and repeatable -------- *)

let () =
  let router_run () =
    run_cli
      ([
         "serve"; "router"; "--graph-file"; graph_file; "--labels-file";
         packed_file; "--shards"; "3"; "--partition"; "hash"; "--seed"; "23";
         "--clock-step"; "1000";
       ]
      @ ops_args)
  in
  let code_a, lines_a = router_run () in
  let code_b, lines_b = router_run () in
  check "router: exits 0" (code_a = 0 && code_b = 0);
  let ha = sha256 (op_answers lines_a) and hb = sha256 (op_answers lines_b) in
  check "router: same-seed runs byte-identical" (ha = hb);
  check "router: merge = in-process stores" (ha = sha256 assoc_answers);
  Printf.printf "scenario 3 (3-shard router merge byte-identical): ok\n%!"

(* ----- 4. the shared resolver and typed failure exits ---------------- *)

let () =
  let expect name code args =
    let got, _ = run_cli args in
    check
      (Printf.sprintf "%s exits %d (got %d)" name code got)
      (got = code)
  in
  (* the one store-kind resolver guards every serve subcommand *)
  List.iter
    (fun sub ->
      expect
        (sub ^ ": --mmap without --labels-file")
        124
        [ "serve"; sub; "--graph-file"; graph_file; "--mmap" ])
    [ "query"; "stats"; "loop"; "worker"; "router" ];
  List.iter
    (fun sub ->
      expect
        (sub ^ ": --mmap --flat")
        124
        [
          "serve"; sub; "--graph-file"; graph_file; "--labels-file";
          packed_file; "--mmap"; "--flat";
        ])
    [ "query"; "stats"; "loop" ];
  expect "bad --op spelling" 124
    [
      "serve"; "query"; "--graph-file"; graph_file; "--labels-file";
      packed_file; "--op"; "top-k:wat";
    ];
  expect "out-of-range --op operand" 11
    [
      "serve"; "query"; "--graph-file"; graph_file; "--labels-file";
      packed_file; "--op"; "ecc:100000";
    ];
  expect "router rejects bad --op too" 124
    [
      "serve"; "router"; "--graph-file"; graph_file; "--labels-file";
      packed_file; "--op"; "nonsense";
    ];
  Printf.printf "scenario 4 (typed failure exits): ok\n%!"

(* ----- 5. the store boundary on every serve subcommand --------------- *)

let () =
  let pack ~n ~compress file =
    let code, _ =
      run_cli
        ([
           "label"; "--graph"; "sparse"; "-n"; string_of_int n; "--seed";
           "23"; "--pack"; file;
         ]
        @ if compress then [ "--compress" ] else [])
    in
    check ("pack " ^ file) (code = 0);
    Sys.remove (file ^ ".graph")
  in
  let small = Filename.temp_file "ops_smoke_small" ".bin" in
  let small2 = Filename.temp_file "ops_smoke_small2" ".bin" in
  let packed2 = Filename.temp_file "ops_smoke_hubflat2" ".bin" in
  let empty = Filename.temp_file "ops_smoke_queries" ".txt" in
  (* a 48-byte HUBFLAT1 file whose header (n = 2^62 - 2, total =
     2^61 + 2) makes 2 * total wrap: the saturated length check must
     reject it as a parse failure on every path *)
  let overflow = Filename.temp_file "ops_smoke_overflow" ".bin" in
  (let b = Bytes.make 48 '\000' in
   Bytes.blit_string "HUBFLAT1" 0 b 0 8;
   Bytes.set_int64_le b 8 0x3FFF_FFFF_FFFF_FFFEL;
   Bytes.set_int64_le b 16 0x2000_0000_0000_0002L;
   let oc = open_out_bin overflow in
   output_bytes oc b;
   close_out oc);
  pack ~n:150 ~compress:false small;
  pack ~n:150 ~compress:true small2;
  pack ~n:180 ~compress:true packed2;
  (* (subcommand, store flags it accepts); the stream subcommands read
     an empty query file so a wrongly accepted run cannot block *)
  let subs =
    let heap = [ []; [ "--flat" ]; [ "--mmap" ]; [ "--compact" ] ]
    and shard = [ []; [ "--mmap" ]; [ "--compact" ] ] in
    [
      ("query", heap, []);
      ("stats", heap, []);
      ("loop", heap, [ "--queries"; empty ]);
      ("router", shard, [ "--queries"; empty ]);
      ("trace", shard, [ "--queries"; empty ]);
    ]
  in
  let expect name code args =
    let got, _ = run_cli args in
    if got <> code then fail "%s exits %d (got %d)" name code got;
    incr passed
  in
  List.iter
    (fun (sub, flags, extra) ->
      let serve ?labels args =
        [ "serve"; sub; "--graph-file"; graph_file ]
        @ (match labels with Some f -> [ "--labels-file"; f ] | None -> [])
        @ extra @ args
      in
      List.iter
        (fun flag ->
          let name = String.concat " " (sub :: flag) in
          (* n=150 store against the n=180 graph, in the format the
             flag reads *)
          let mismatched = if flag = [ "--compact" ] then small2 else small in
          expect (name ^ ": store n <> graph n") 11
            (serve ~labels:mismatched flag);
          expect (name ^ ": 2*total overflow file") 10
            (serve ~labels:overflow flag))
        flags;
      expect (sub ^ " --compact: HUBFLAT1 file") 10
        (serve ~labels:packed_file [ "--compact" ]);
      expect (sub ^ " --mmap: HUBFLAT2 file") 10
        (serve ~labels:packed2 [ "--mmap" ]);
      List.iter
        (fun pair ->
          if List.for_all (fun f -> List.mem [ f ] flags) pair then
            expect
              (sub ^ " " ^ String.concat " " pair ^ ": conflicting flags")
              124
              (serve ~labels:packed_file pair))
        [ [ "--mmap"; "--flat" ]; [ "--compact"; "--flat" ];
          [ "--mmap"; "--compact" ] ];
      if List.mem [ "--flat" ] flags then begin
        (* no packed store to cache or serve: a usage error, never a
           silent search-only or cache-free run *)
        expect (sub ^ " --cache-slots without a packed store") 124
          (serve ~labels:packed_file [ "--cache-slots"; "8" ]);
        expect (sub ^ " --flat without --labels-file") 124
          (serve [ "--flat" ])
      end)
    subs;
  expect "check: 2*total overflow file" 10
    [ "serve"; "check"; "--graph-file"; graph_file; "--labels-file"; overflow ];
  List.iter Sys.remove [ small; small2; packed2; empty; overflow ];
  Printf.printf "scenario 5 (store boundary on every serve subcommand): ok\n%!";
  Sys.remove packed_file;
  Sys.remove graph_file;
  Printf.printf "ops-smoke: all scenarios passed (%d checks)\n%!" !passed
