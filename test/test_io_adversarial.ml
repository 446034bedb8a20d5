(* Adversarial parsing tests for the Result-typed IO entry points:
   truncated input, wrong counts, out-of-range ids, negative
   weights/distances, duplicate lines, comments/whitespace — plus
   round-trip property tests for both formats. *)

open Repro_graph
open Repro_hub

let graph_err input =
  match Graph_io.of_string_res input with
  | Ok _ -> Alcotest.failf "expected a parse error on %S" input
  | Error e -> e

let wgraph_err input =
  match Graph_io.wgraph_of_string_res input with
  | Ok _ -> Alcotest.failf "expected a parse error on %S" input
  | Error e -> e

let hub_err input =
  match Hub_io.of_string_res input with
  | Ok _ -> Alcotest.failf "expected a parse error on %S" input
  | Error e -> e

let check_err name ~line ~substr e =
  Test_util.check_int (name ^ " line") line e.Graph_io.line;
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  if not (contains e.Graph_io.msg substr) then
    Alcotest.failf "%s: message %S does not mention %S" name e.Graph_io.msg
      substr

(* ----- Graph_io ------------------------------------------------------ *)

let test_graph_truncated () =
  check_err "truncated" ~line:1 ~substr:"edge count mismatch"
    (graph_err "4 3\n0 1\n1 2\n");
  check_err "extra edges" ~line:1 ~substr:"edge count mismatch"
    (graph_err "4 1\n0 1\n1 2\n")

let test_graph_comments_whitespace () =
  let g =
    match
      Graph_io.of_string_res "# header next\n\n  3 2  \n0 1\n# middle\n\n1 2\n"
    with
    | Ok g -> g
    | Error e -> Alcotest.failf "unexpected: %s" (Graph_io.string_of_parse_error e)
  in
  Test_util.check_int "n" 3 (Graph.n g);
  Test_util.check_int "m" 2 (Graph.m g)

let test_graph_bad_lines () =
  check_err "endpoint range" ~line:2 ~substr:"endpoint out of range"
    (graph_err "2 1\n0 5\n");
  check_err "negative endpoint" ~line:2 ~substr:"endpoint out of range"
    (graph_err "2 1\n0 -1\n");
  check_err "self loop" ~line:2 ~substr:"self loop" (graph_err "2 1\n1 1\n");
  check_err "duplicate" ~line:3 ~substr:"duplicate edge"
    (graph_err "2 2\n0 1\n1 0\n");
  check_err "bad token" ~line:2 ~substr:"bad token" (graph_err "2 1\nx 1\n");
  check_err "bad header" ~line:1 ~substr:"bad header" (graph_err "1 2 3\n");
  check_err "negative n" ~line:1 ~substr:"negative vertex count"
    (graph_err "-2 0\n");
  check_err "empty" ~line:0 ~substr:"empty input" (graph_err "  \n# only\n")

let test_wgraph_bad_lines () =
  check_err "negative weight" ~line:2 ~substr:"negative weight"
    (wgraph_err "2 1\n0 1 -3\n");
  check_err "short edge line" ~line:2 ~substr:"bad edge line"
    (wgraph_err "2 1\n0 1\n");
  let g =
    match Graph_io.wgraph_of_string_res "2 1\n0 1 0\n" with
    | Ok g -> g
    | Error e -> Alcotest.failf "unexpected: %s" (Graph_io.string_of_parse_error e)
  in
  Test_util.check_int "zero weight accepted" 1 (Wgraph.m g)

(* The raising shims are gone; the [_res] parsers carry the same
   message strings (the "Graph_io.of_string:" prefixes name the format,
   not a function), pinned here so error output stays stable. *)
let test_compat_raises () =
  check_err "graph edge count" ~line:1
    ~substr:"Graph_io.of_string: edge count mismatch"
    (graph_err "3 2\n0 1\n");
  check_err "hub duplicate vertex" ~line:3
    ~substr:"Hub_io.of_string: duplicate vertex line"
    (hub_err "2 2\n0 1 0 0\n0 1 0 0\n")

(* ----- Hub_io -------------------------------------------------------- *)

let test_hub_bad_lines () =
  check_err "duplicate vertex" ~line:3 ~substr:"duplicate vertex line"
    (hub_err "2 2\n0 1 0 0\n0 1 0 0\n");
  check_err "vertex range" ~line:2 ~substr:"vertex out of range"
    (hub_err "1 1\n4 1 0 0\n");
  check_err "hub range" ~line:2 ~substr:"hub out of range"
    (hub_err "1 1\n0 1 5 0\n");
  check_err "negative distance" ~line:2 ~substr:"negative distance"
    (hub_err "1 1\n0 1 0 -2\n");
  check_err "truncated" ~line:1 ~substr:"vertex count mismatch"
    (hub_err "3 3\n0 1 0 0\n");
  check_err "pair count" ~line:2 ~substr:"pair count mismatch"
    (hub_err "1 2\n0 2 0 0\n");
  check_err "total mismatch" ~line:1 ~substr:"total size mismatch"
    (hub_err "1 2\n0 1 0 0\n");
  check_err "bad header" ~line:1 ~substr:"bad header" (hub_err "1\n0 0\n")

let test_hub_comments_whitespace () =
  let l =
    match Hub_io.of_string_res "# labeling\n2 2\n\n 0 1 0 0 \n1 1 1 0\n" with
    | Ok l -> l
    | Error e -> Alcotest.failf "unexpected: %s" (Graph_io.string_of_parse_error e)
  in
  Test_util.check_int "n" 2 (Hub_label.n l);
  Test_util.check_int "total" 2 (Hub_label.total_size l)

(* ----- round-trip properties ---------------------------------------- *)

let prop_graph_roundtrip =
  Test_util.qcheck "Graph_io roundtrip through of_string_res" ~count:50
    Gen.small_graph_gen (fun param ->
      let g = Gen.build_graph param in
      match Graph_io.of_string_res (Graph_io.to_string g) with
      | Error _ -> false
      | Ok g' -> Graph.n g' = Graph.n g && Graph.edges g' = Graph.edges g)

let prop_wgraph_roundtrip =
  Test_util.qcheck "Graph_io weighted roundtrip" ~count:50
    Gen.small_connected_gen (fun param ->
      let g = Gen.build_connected param in
      let w =
        Wgraph.of_edges ~n:(Graph.n g)
          (List.mapi (fun i (u, v) -> (u, v, i mod 7)) (Graph.edges g))
      in
      match Graph_io.wgraph_of_string_res (Graph_io.wgraph_to_string w) with
      | Error _ -> false
      | Ok w' -> Wgraph.n w' = Wgraph.n w && Wgraph.edges w' = Wgraph.edges w)

let prop_hub_roundtrip =
  Test_util.qcheck "Hub_io roundtrip through of_string_res" ~count:30
    Gen.small_connected_gen (fun param ->
      let g = Gen.build_connected param in
      let labels = Pll.build g in
      match Hub_io.of_string_res (Hub_io.to_string labels) with
      | Error _ -> false
      | Ok labels' ->
          Hub_label.n labels' = Hub_label.n labels
          && Array.init (Hub_label.n labels) (fun v -> Hub_label.hubs labels' v)
             = Array.init (Hub_label.n labels) (fun v -> Hub_label.hubs labels v))

(* ----- Wire protocol (sharded tier) ---------------------------------
   Every hostile byte sequence must surface as a typed [Wire.error] —
   never an exception, never a hang. The descriptor-level entry points
   are exercised over real pipes with the writer closed, so a
   would-be hang fails fast as EOF instead. *)

module Wire = Repro_shard.Wire

let wire_err name s =
  match Wire.decode_frame s ~pos:0 with
  | Ok _ -> Alcotest.failf "%s: expected a wire error" name
  | Error e -> e

let le32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.to_string b

let test_wire_truncated_frames () =
  let full = Wire.encode_request (Wire.Query { id = 1; u = 2; v = 3 }) in
  (* cut the frame at every possible byte boundary *)
  for k = 1 to String.length full - 1 do
    match wire_err "truncated" (String.sub full 0 k) with
    | Wire.Truncated _ -> ()
    | e ->
        Alcotest.failf "cut at %d: expected Truncated, got %s" k
          (Wire.error_to_string e)
  done;
  (* a fixed-size payload with trailing bytes is also malformed *)
  match Wire.request_of_payload ("\x02" ^ String.make 9 '\x00') with
  | Error (Wire.Bad_payload _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "trailing bytes must be rejected"

let test_wire_hostile_lengths () =
  (match wire_err "negative" ("\xff\xff\xff\xff" ^ "junk") with
  | Wire.Negative_length _ -> ()
  | e -> Alcotest.failf "expected Negative_length, got %s" (Wire.error_to_string e));
  (match wire_err "oversized" (le32 (Wire.max_frame_len + 1)) with
  | Wire.Oversized l -> Test_util.check_int "length echoed" (Wire.max_frame_len + 1) l
  | e -> Alcotest.failf "expected Oversized, got %s" (Wire.error_to_string e));
  match wire_err "empty" (le32 0) with
  | Wire.Bad_payload _ -> ()
  | e -> Alcotest.failf "expected Bad_payload, got %s" (Wire.error_to_string e)

let test_wire_garbage_opcodes () =
  List.iter
    (fun p ->
      (match Wire.request_of_payload p with
      | Error (Wire.Bad_opcode _) -> ()
      | Ok _ | Error _ -> Alcotest.failf "request opcode %d" (Char.code p.[0]));
      match Wire.response_of_payload p with
      | Error (Wire.Bad_opcode _) -> ()
      | Ok _ | Error _ -> Alcotest.failf "response opcode %d" (Char.code p.[0]))
    [ "\x7f"; "\xff"; "\x0arest" ];
  (* 0x05 is Op_row now: a short body is Truncated, never Bad_opcode *)
  (match Wire.request_of_payload "\x05rest" with
  | Error (Wire.Truncated _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "short Op_row body should be Truncated");
  (* 0x09 is Trace_fetch now: a short body is Truncated, never Bad_opcode *)
  (match Wire.request_of_payload "\x09rest" with
  | Error (Wire.Truncated _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "short Trace_fetch body should be Truncated");
  (match Wire.response_of_payload "\x09rest" with
  | Error (Wire.Bad_opcode 0x09) -> ()
  | Ok _ | Error _ -> Alcotest.fail "Trace_fetch is not a response");
  (* request opcodes are not response opcodes and vice versa *)
  (match Wire.response_of_payload "\x02\x01\x00\x00\x00\x00\x00\x00\x00" with
  | Error (Wire.Bad_opcode 0x02) -> ()
  | Ok _ | Error _ -> Alcotest.fail "ping is not a response");
  (match Wire.response_of_payload "\x08\x01\x00\x00\x00\x00\x00\x00\x00" with
  | Error (Wire.Bad_opcode 0x08) -> ()
  | Ok _ | Error _ -> Alcotest.fail "Op_diam is not a response");
  (match Wire.request_of_payload "\x82\x01\x00\x00\x00\x00\x00\x00\x00" with
  | Error (Wire.Bad_opcode 0x82) -> ()
  | Ok _ | Error _ -> Alcotest.fail "pong is not a request");
  match
    Wire.request_of_payload
      ("\x86" ^ String.init 33 (fun _ -> '\x00'))
  with
  | Error (Wire.Bad_opcode 0x86) -> ()
  | Ok _ | Error _ -> Alcotest.fail "Ecc_payload is not a request"

let test_wire_midframe_eof_on_pipe () =
  let check bytes expect =
    let r, w = Unix.pipe ~cloexec:false () in
    if bytes <> "" then (
      match Wire.write_frame w bytes with
      | Ok () -> ()
      | Error e -> Alcotest.failf "setup write: %s" (Wire.error_to_string e));
    Unix.close w;
    let got = Wire.read_frame r in
    Unix.close r;
    match (got, expect) with
    | Error (Wire.Truncated _), `Truncated -> ()
    | Error Wire.Eof, `Eof -> ()
    | Ok _, _ -> Alcotest.fail "expected an error from the pipe"
    | Error e, _ ->
        Alcotest.failf "wrong pipe error: %s" (Wire.error_to_string e)
  in
  check "" `Eof;
  (* die inside the header *)
  check "\x19\x00" `Truncated;
  (* die inside the body: header promises 25 bytes, deliver 5 *)
  check (le32 25 ^ "\x01abcd") `Truncated

let prop_wire_decode_total =
  Test_util.qcheck "Wire.decode_frame is total on random bytes" ~count:300
    QCheck2.Gen.(string_size ~gen:char (int_range 0 64))
    (fun s ->
      (* no exception, and on success the reported next position is sane *)
      match Wire.decode_frame s ~pos:0 with
      | Ok (payload, next) ->
          next <= String.length s && String.length payload = next - 4
          && (match Wire.request_of_payload payload with _ -> true)
          && (match Wire.response_of_payload payload with _ -> true)
      | Error _ -> true)

(* ----- Trace-context wrapper (opcode 0x0f) ---------------------------
   The optional context block must never cost totality: every hostile
   version/length/flags byte, every truncation and every misplaced
   wrapper surfaces as a typed [Wire.error] or a context-free decode —
   never an exception, never a mis-framed stream. *)

let ctx_fixture =
  Repro_obs.Trace_ctx.force
    (Repro_obs.Trace_ctx.head_sample ~every:1
       (Repro_obs.Trace_ctx.root ~seed:20190721 ~seq:5))

let test_ctx_truncated_every_byte () =
  let inner = Wire.Query { id = 7; u = 1; v = 2 } in
  let full = Wire.encode_request_ctx ~ctx:ctx_fixture inner in
  (* the wrapped frame really is the wrapper opcode *)
  (match Wire.decode_frame full ~pos:0 with
  | Ok (p, _) -> Test_util.check_int "wrapper opcode" 0x0f (Char.code p.[0])
  | Error e -> Alcotest.failf "fixture frame: %s" (Wire.error_to_string e));
  for k = 1 to String.length full - 1 do
    match Wire.decode_frame (String.sub full 0 k) ~pos:0 with
    | Error (Wire.Truncated _) -> ()
    | Error Wire.Eof -> ()
    | Ok (p, _) -> (
        (* header survived the cut: the payload itself must reject *)
        match Wire.request_of_payload_ctx p with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "cut at %d decoded" k)
    | Error e ->
        Alcotest.failf "cut at %d: unexpected %s" k (Wire.error_to_string e)
  done;
  (* untouched, it round-trips with the context intact *)
  match Wire.decode_frame full ~pos:0 with
  | Ok (p, _) -> (
      match Wire.request_of_payload_ctx p with
      | Ok (req, Some c) ->
          Test_util.check_bool "inner request intact" true (req = inner);
          Test_util.check_bool "context intact" true (c = ctx_fixture)
      | Ok (_, None) -> Alcotest.fail "context lost"
      | Error e -> Alcotest.failf "round trip: %s" (Wire.error_to_string e))
  | Error e -> Alcotest.failf "round trip frame: %s" (Wire.error_to_string e)

let test_ctx_hostile_bytes () =
  let inner = Wire.Query { id = 7; u = 1; v = 2 } in
  let full = Wire.encode_request_ctx ~ctx:ctx_fixture inner in
  let payload = String.sub full 4 (String.length full - 4) in
  let patched i c =
    let b = Bytes.of_string payload in
    Bytes.set b i c;
    Bytes.to_string b
  in
  (* unknown version: block skipped, inner request still decodes *)
  (match Wire.request_of_payload_ctx (patched 1 '\xff') with
  | Ok (req, None) ->
      Test_util.check_bool "unknown version keeps request" true (req = inner)
  | Ok (_, Some _) -> Alcotest.fail "unknown version produced a context"
  | Error e ->
      Alcotest.failf "unknown version: %s" (Wire.error_to_string e));
  (* v1 with a wrong block length is malformed, not misframed *)
  (match Wire.request_of_payload_ctx (patched 2 '\x18') with
  | Error (Wire.Bad_payload _ | Wire.Truncated _) -> ()
  | Ok _ -> Alcotest.fail "wrong ctx length decoded"
  | Error e ->
      Alcotest.failf "wrong ctx length: %s" (Wire.error_to_string e));
  (* hostile flag bits are reserved, ignored: still decodes *)
  (match Wire.request_of_payload_ctx (patched 27 '\xff') with
  | Ok (req, Some _) ->
      Test_util.check_bool "hostile flags keep request" true (req = inner)
  | Ok (_, None) -> Alcotest.fail "hostile flags dropped the context"
  | Error e -> Alcotest.failf "hostile flags: %s" (Wire.error_to_string e));
  (* a wrapper around garbage inner bytes fails like plain garbage *)
  (match
     Wire.request_of_payload_ctx
       (String.sub payload 0 28 ^ "\xffgarbage")
   with
  | Error (Wire.Bad_opcode 0xff) -> ()
  | Ok _ | Error _ -> Alcotest.fail "garbage inner payload accepted");
  (* a wrapper with no inner payload at all *)
  match Wire.request_of_payload_ctx (String.sub payload 0 28) with
  | Error (Wire.Bad_payload _ | Wire.Truncated _) -> ()
  | Ok _ -> Alcotest.fail "empty inner payload accepted"
  | Error e ->
      Alcotest.failf "empty inner payload: %s" (Wire.error_to_string e)

let test_ctx_misplaced_wrappers () =
  let inner = Wire.Query { id = 7; u = 1; v = 2 } in
  let wrapped = Wire.encode_request_ctx ~ctx:ctx_fixture inner in
  let payload = String.sub wrapped 4 (String.length wrapped - 4) in
  (* nested wrapper: the inner payload must not be a 0x0f itself *)
  let nested =
    String.sub payload 0 28 ^ payload (* ctx block, then the whole
                                         wrapper again as "inner" *)
  in
  (match Wire.request_of_payload_ctx nested with
  | Error (Wire.Bad_opcode 0x0f) -> ()
  | Ok _ | Error _ -> Alcotest.fail "nested ctx wrapper accepted");
  (* responses never carry a context *)
  (match Wire.response_of_payload payload with
  | Error (Wire.Bad_opcode 0x0f) -> ()
  | Ok _ | Error _ -> Alcotest.fail "ctx wrapper accepted as a response");
  (* the plain (ctx-unaware) request decoder also rejects it: an old
     peer stays in sync and answers with a typed error *)
  (match Wire.request_of_payload payload with
  | Error (Wire.Bad_opcode 0x0f) -> ()
  | Ok _ | Error _ -> Alcotest.fail "old peer would mis-parse the wrapper");
  (* context-free encoding is byte-identical to the historical one *)
  Test_util.check_bool "no ctx = historical bytes" true
    (Wire.encode_request_ctx inner = Wire.encode_request inner)

let prop_ctx_decode_total =
  Test_util.qcheck "request_of_payload_ctx is total on random bytes"
    ~count:300
    QCheck2.Gen.(string_size ~gen:char (int_range 0 80))
    (fun s ->
      (* force the interesting opcode half the time *)
      let s = if String.length s > 0 && Char.code s.[0] land 1 = 0 then
          "\x0f" ^ s
        else s
      in
      match Wire.request_of_payload_ctx s with
      | Ok (_, _) -> true
      | Error _ -> true)

(* ----- HUBFLAT1 (heap Flat_hub and zero-copy Mmap_hub) ---------------
   Every malformed HUBFLAT1 file must decode to a typed [Mmap_hub.error]
   — never a segfault, exception or hang — and the two entry points
   must reject it alike: the heap parse ([Flat_image.of_string], behind
   [Hub_io.flat_of_bytes_res]) and [Mmap_hub.load_res ~deep:true] run
   the one validator, so every row of [hubflat1_table] is checked to
   give the same error through both. The fixture labeling is built by
   hand so every word offset in the file is known exactly:
     word 0 magic | 1 n=3 | 2 total=6 | 3..6 offsets 0,1,3,6
     | 7.. data (0,0) (0,1)(1,0) (0,2)(1,1)(2,0)            (19 words) *)

let packed_fixture =
  lazy
    (let labels =
       Hub_label.make ~n:3
         (Array.of_list
            [ [ (0, 0) ]; [ (0, 1); (1, 0) ]; [ (0, 2); (1, 1); (2, 0) ] ])
     in
     Hub_io.flat_to_bytes (Flat_hub.of_labels labels))

let mmap_load ?deep bytes =
  let path = Filename.temp_file "hubhard_adv" ".bin" in
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc;
  let res = Mmap_hub.load_res ?deep path in
  Sys.remove path;
  res

let patch bytes ~word v =
  let b = Bytes.of_string bytes in
  Bytes.set_int64_le b (8 * word) v;
  Bytes.to_string b

(* hand-assemble a HUBFLAT1 file from its header and word list *)
let image ~n ~total words =
  String.concat ""
    ("HUBFLAT1"
    :: List.map
         (fun x ->
           let b = Bytes.create 8 in
           Bytes.set_int64_le b 0 (Int64.of_int x);
           Bytes.to_string b)
         (n :: total :: words))

(* the file that overflowed [2 * total] in the word-by-word heap parser
   of earlier revisions: n = 2^62 - 2, total = 2^61 + 2, three zero
   words (48 bytes) *)
let overflow_file =
  "HUBFLAT1"
  ^ String.concat ""
      (List.map
         (fun x ->
           let b = Bytes.create 8 in
           Bytes.set_int64_le b 0 x;
           Bytes.to_string b)
         [ 0x3FFF_FFFF_FFFF_FFFEL; 0x2000_0000_0000_0002L; 0L; 0L; 0L ])

(* [hostile name bytes]: the one error both entry points give *)
let hostile name bytes =
  let str = Mmap_hub.error_to_string in
  let heap =
    match Flat_image.of_string bytes with
    | Ok _ -> Alcotest.failf "%s: heap parse accepted malformed bytes" name
    | Error e -> e
  in
  (match mmap_load ~deep:true bytes with
  | Ok _ -> Alcotest.failf "%s: deep mmap load accepted malformed bytes" name
  | Error e when e <> heap ->
      Alcotest.failf "%s: heap parse says %s, mmap load says %s" name
        (str heap) (str e)
  | Error _ -> ());
  (match Hub_io.flat_of_bytes_res bytes with
  | Ok _ -> Alcotest.failf "%s: Hub_io.flat_of_bytes_res accepted" name
  | Error { Hub_io.line; msg } ->
      let want =
        Packed_file.error_to_string ~prefix:"Hub_io.flat_of_bytes" heap
      in
      if line <> 0 || msg <> want then
        Alcotest.failf "%s: Hub_io reports %d/%S, wanted 0/%S" name line msg
          want);
  heap

(* One table, by group: (case, bytes, the error it must give). *)
let hubflat1_table =
  lazy
    (let bytes = Lazy.force packed_fixture in
     let is want e = e = want in
     let header word = function
       | Mmap_hub.Bad_header { word = w; _ } -> w = word
       | _ -> false
     in
     let offsets = function Mmap_hub.Bad_offsets _ -> true | _ -> false in
     let entry = function Mmap_hub.Bad_entry _ -> true | _ -> false in
     let mismatch expected_words actual_words =
       is (Mmap_hub.Length_mismatch { expected_words; actual_words })
     in
     let bad_offsets vertex msg = is (Mmap_hub.Bad_offsets { vertex; msg }) in
     let bad_entry entry msg =
       is (Mmap_hub.Bad_entry { vertex = 0; entry; msg })
     in
     let path4 =
       Hub_io.flat_to_bytes
         (Flat_hub.of_labels (Pll.build (Generators.path 4)))
     in
     let cut s k = String.sub s 0 (String.length s - k) in
     [
       (* cut the file at every possible byte boundary; the error
          constructor is fully determined by the cut length *)
       ( "truncation",
         List.init (String.length bytes) (fun k ->
             let want =
               if k < 24 then Mmap_hub.Too_short { bytes = k }
               else if k mod 8 <> 0 then Mmap_hub.Misaligned { bytes = k }
               else
                 (* expected_words saturates to max_int while the
                    header's n=3/total=6 still exceed the truncated
                    word count *)
                 let actual_words = k / 8 in
                 Mmap_hub.Length_mismatch
                   { expected_words =
                       (if actual_words < 6 then max_int else 19);
                     actual_words }
             in
             (Printf.sprintf "cut at %d" k, String.sub bytes 0 k, is want)) );
       ( "header",
         [
           ("magic", patch bytes ~word:0 0L, is Mmap_hub.Bad_magic);
           ("negative n", patch bytes ~word:1 (-1L), header 8);
           ("overflowing n", patch bytes ~word:1 Int64.max_int, header 8);
           ("negative total", patch bytes ~word:2 Int64.min_int, header 16);
           ( "inflated n",
             patch bytes ~word:1 4L,
             mismatch 20 19 );
           ( "inflated total",
             patch bytes ~word:2 7L,
             mismatch 21 19 );
           (* n/total far beyond the file: the saturated length check,
              not an allocation or overflow, must reject them *)
           ( "huge n",
             patch bytes ~word:1 0x10_0000_0000L,
             mismatch max_int 19 );
           ( "2*total overflow",
             overflow_file,
             mismatch max_int 6 );
           ( "misaligned tail",
             bytes ^ "xyz",
             is (Mmap_hub.Misaligned { bytes = String.length bytes + 3 }) );
           ( "trailing word",
             bytes ^ String.make 8 '\x00',
             mismatch 19 20 );
           ("empty", "", is (Mmap_hub.Too_short { bytes = 0 }));
           ( "bad magic letter",
             "XUBFLAT1" ^ String.sub path4 8 (String.length path4 - 8),
             is Mmap_hub.Bad_magic );
           ( "truncated word",
             cut path4 3,
             is (Mmap_hub.Misaligned { bytes = String.length path4 - 3 }) );
           ( "missing word",
             cut path4 8,
             function Mmap_hub.Length_mismatch _ -> true | _ -> false );
           ( "offsets one short",
             image ~n:2 ~total:1 [ 0; 1; 0; 0 ],
             mismatch 8 7 );
         ] );
       ( "offsets",
         [
           ("offsets must start at 0", patch bytes ~word:3 1L, offsets);
           ("negative first offset", patch bytes ~word:3 (-1L), offsets);
           ("decreasing offsets", patch bytes ~word:5 0L, offsets);
           ("offset beyond entry count", patch bytes ~word:5 7L, offsets);
           ( "offset beyond int64 range",
             patch bytes ~word:5 Int64.max_int,
             offsets );
           ("final offset below total", patch bytes ~word:6 5L, offsets);
           ("negative middle offset", patch bytes ~word:4 (-3L), offsets);
           ( "nonzero start",
             image ~n:1 ~total:0 [ 1; 1 ],
             bad_offsets 0 "must start at 0" );
           ( "decreasing tail",
             image ~n:2 ~total:1 [ 0; 1; 0; 0; 0 ],
             bad_offsets 2 "must be non-decreasing" );
           ( "wrong end",
             image ~n:1 ~total:1 [ 0; 2; 0; 0 ],
             bad_offsets 1 "exceeds the entry count" );
         ] );
       ( "entries",
         [
           ("hub out of range", patch bytes ~word:7 5L, entry);
           ("negative hub", patch bytes ~word:7 (-1L), entry);
           ("hubs not strictly increasing", patch bytes ~word:11 0L, entry);
           ("negative distance", patch bytes ~word:8 (-2L), entry);
           ( "distance overflows native int",
             patch bytes ~word:8 0x4000_0000_0000_0000L,
             entry );
           ( "hub = n",
             image ~n:1 ~total:1 [ 0; 1; 1; 0 ],
             bad_entry 0 "hub out of range" );
           ( "distance -1",
             image ~n:1 ~total:1 [ 0; 1; 0; -1 ],
             bad_entry 0 "bad distance" );
           ( "unsorted hubs",
             image ~n:3 ~total:2 [ 0; 2; 2; 2; 1; 0; 0; 1 ],
             bad_entry 1 "hubs must be strictly increasing" );
         ] );
     ])

let run_group group =
  List.iter
    (fun (name, bytes, want) ->
      let e = hostile name bytes in
      if not (want e) then
        Alcotest.failf "%s: unexpected %s" name (Mmap_hub.error_to_string e))
    (List.assoc group (Lazy.force hubflat1_table))

let test_mmap_pristine () =
  let bytes = Lazy.force packed_fixture in
  Test_util.check_int "fixture size" (8 * 19) (String.length bytes);
  Test_util.check_bool "is_packed detects" true (Hub_io.is_packed bytes);
  Test_util.check_bool "is_packed rejects text" false (Hub_io.is_packed "3 4\n");
  (match Hub_io.flat_of_bytes_res bytes with
  | Error e -> Alcotest.failf "pristine heap parse: %s" e.Hub_io.msg
  | Ok flat -> Test_util.check_int "heap d(0,2)" 2 (Flat_hub.query flat 0 2));
  match mmap_load ~deep:true bytes with
  | Error e -> Alcotest.failf "pristine: %s" (Mmap_hub.error_to_string e)
  | Ok store ->
      Test_util.check_int "n" 3 (Mmap_hub.n store);
      Test_util.check_int "total" 6 (Mmap_hub.total_size store);
      Test_util.check_int "d(0,2)" 2 (Mmap_hub.query store 0 2);
      Test_util.check_int "d(2,1)" 1 (Mmap_hub.query store 2 1)

let test_mmap_truncated_every_byte () = run_group "truncation"
let test_mmap_hostile_header () = run_group "header"
let test_mmap_hostile_offsets () = run_group "offsets"

(* both deep paths scan every entry word; shallow mode deliberately
   accepts garbage entries (memory safety only needs the offsets) and
   [validate_entries] catches the rot after the fact. *)
let test_mmap_hostile_entries () =
  run_group "entries";
  List.iter
    (fun (name, bytes, _) ->
      match mmap_load bytes with
      | Error e ->
          Alcotest.failf "%s: shallow load must accept bad entry words, got %s"
            name (Mmap_hub.error_to_string e)
      | Ok store -> (
          match Mmap_hub.validate_entries store with
          | Error e when e = hostile name bytes -> ()
          | Error e ->
              Alcotest.failf "%s: validate_entries got %s" name
                (Mmap_hub.error_to_string e)
          | Ok () -> Alcotest.failf "%s: validate_entries accepted rot" name))
    (List.assoc "entries" (Lazy.force hubflat1_table))

let test_mmap_not_a_file () =
  (match Mmap_hub.load_res "/nonexistent/hubhard/labels.bin" with
  | Error (Mmap_hub.Io _) -> ()
  | Error e -> Alcotest.failf "missing file: got %s" (Mmap_hub.error_to_string e)
  | Ok _ -> Alcotest.fail "missing file: expected an error");
  (match Mmap_hub.load_res (Filename.get_temp_dir_name ()) with
  | Error (Mmap_hub.Not_regular _ | Mmap_hub.Io _) -> ()
  | Error e -> Alcotest.failf "directory: got %s" (Mmap_hub.error_to_string e)
  | Ok _ -> Alcotest.fail "directory: expected an error");
  if Sys.file_exists "/dev/null" then
    match Mmap_hub.load_res "/dev/null" with
    | Error (Mmap_hub.Not_regular _) -> ()
    | Error e ->
        Alcotest.failf "/dev/null: got %s" (Mmap_hub.error_to_string e)
    | Ok _ -> Alcotest.fail "/dev/null: expected Not_regular"

let prop_mmap_load_total =
  Test_util.qcheck "Mmap_hub.load_res is total on random bytes" ~count:120
    QCheck2.Gen.(string_size ~gen:char (int_range 0 200))
    (fun s ->
      (* no exception ever; acceptance implies a coherent header; the
         heap parse accepts or rejects exactly alike *)
      let heap = Result.map (fun _ -> ()) (Flat_image.of_string s) in
      match mmap_load ~deep:true s with
      | Ok store ->
          heap = Ok () && Mmap_hub.n store >= 0 && Mmap_hub.total_size store >= 0
      | Error e -> heap = Error e)

(* ----- Compact_hub (compressed zero-copy store) ----------------------
   The HUBFLAT2 decoder faces a strictly nastier input space than
   HUBFLAT1: variable-length varints, deltas, and a skip table full of
   byte offsets. Same contract: every malformed image surfaces as a
   typed [Compact_hub.error] under deep validation, and a shallowly
   accepted image may answer queries wrongly but never crashes, hangs
   or reads out of bounds. *)

let compact_fixture =
  lazy
    (let labels =
       Hub_label.make ~n:3
         (Array.of_list
            [ [ (0, 0) ]; [ (0, 1); (1, 0) ]; [ (0, 2); (1, 1); (2, 0) ] ])
     in
     Compact_hub.to_bytes (Flat_hub.of_labels labels))

let compact_err name ?deep bytes =
  match Compact_hub.of_bytes_res ?deep bytes with
  | Ok _ -> Alcotest.failf "%s: expected a load error" name
  | Error e -> e

let cexpect name got want =
  if got <> want then
    Alcotest.failf "%s: got %s, wanted %s" name
      (Compact_hub.error_to_string got)
      (Compact_hub.error_to_string want)

(* hand-assemble a HUBFLAT2 image so every byte is known exactly *)
let mk ?(magic = "HUBFLAT2") ~n ~total ~block ~ent_off ~byte_off blob =
  let blob_len = String.length blob in
  let words = 5 + (2 * (n + 1)) in
  let pad = (8 - (blob_len mod 8)) mod 8 in
  let out = Bytes.make ((8 * words) + blob_len + pad) '\000' in
  Bytes.blit_string magic 0 out 0 8;
  let w = ref 1 in
  let put x =
    Bytes.set_int64_le out (8 * !w) (Int64.of_int x);
    incr w
  in
  put n;
  put total;
  put block;
  put blob_len;
  Array.iter put ent_off;
  Array.iter put byte_off;
  Bytes.blit_string blob 0 out (8 * words) blob_len;
  Bytes.to_string out

let u32s x =
  String.init 4 (fun i -> Char.chr ((x lsr (8 * i)) land 0xff))

let skip_entry ~hub ~off = u32s hub ^ u32s off

(* one vertex, one entry per block: region = 8-byte skip entry, base
   varint, then (hub varint, zigzag varint) *)
let mk1 blob ~k =
  mk ~n:1 ~total:k ~block:1 ~ent_off:[| 0; k |]
    ~byte_off:[| 0; String.length blob |]
    blob

let test_compact_pristine () =
  let bytes = Lazy.force compact_fixture in
  Test_util.check_int "fixture size" 144 (String.length bytes);
  match Compact_hub.of_bytes_res ~deep:true bytes with
  | Error e -> Alcotest.failf "pristine: %s" (Compact_hub.error_to_string e)
  | Ok store ->
      Test_util.check_int "n" 3 (Compact_hub.n store);
      Test_util.check_int "total" 6 (Compact_hub.total_size store);
      Test_util.check_int "d(0,2)" 2 (Compact_hub.query store 0 2);
      Test_util.check_int "d(2,1)" 1 (Compact_hub.query store 2 1)

(* cut the image at every byte boundary; the error constructor is fully
   determined by the cut length (offsets only decode past the header) *)
let test_compact_truncated_every_byte () =
  let bytes = Lazy.force compact_fixture in
  let full_words = String.length bytes / 8 in
  for k = 0 to String.length bytes - 1 do
    let name = Printf.sprintf "cut at %d" k in
    let e = compact_err name (String.sub bytes 0 k) in
    let want =
      if k < 40 then Compact_hub.Too_short { bytes = k }
      else if k mod 8 <> 0 then Compact_hub.Misaligned { bytes = k }
      else
        Compact_hub.Length_mismatch
          { expected_words = full_words; actual_words = k / 8 }
    in
    cexpect name e want
  done

let test_compact_hostile_header () =
  let bytes = Lazy.force compact_fixture in
  (match compact_err "magic" (patch bytes ~word:0 0L) with
  | Compact_hub.Bad_magic -> ()
  | e -> Alcotest.failf "magic: got %s" (Compact_hub.error_to_string e));
  let bad_header name word v want_byte =
    match compact_err name (patch bytes ~word v) with
    | Compact_hub.Bad_header { word = b; _ } when b = want_byte -> ()
    | e -> Alcotest.failf "%s: got %s" name (Compact_hub.error_to_string e)
  in
  bad_header "negative n" 1 (-1L) 8;
  bad_header "overflowing n" 1 Int64.max_int 8;
  bad_header "n beyond 2^31" 1 0x8000_0000L 8;
  bad_header "negative total" 2 Int64.min_int 16;
  bad_header "zero block" 3 0L 24;
  bad_header "negative blob_len" 4 (-5L) 32;
  (match compact_err "inflated n" (patch bytes ~word:1 4L) with
  | Compact_hub.Length_mismatch _ -> ()
  | e -> Alcotest.failf "inflated n: got %s" (Compact_hub.error_to_string e));
  (* blob_len far beyond the file: the saturated length check rejects
     it before any allocation *)
  (match compact_err "huge blob_len" (patch bytes ~word:4 0x10_0000_0000L) with
  | Compact_hub.Length_mismatch { expected_words; _ } ->
      Test_util.check_int "saturated" max_int expected_words
  | e -> Alcotest.failf "huge blob_len: got %s" (Compact_hub.error_to_string e));
  (match compact_err "misaligned tail" (bytes ^ "xyz") with
  | Compact_hub.Misaligned _ -> ()
  | e ->
      Alcotest.failf "misaligned tail: got %s" (Compact_hub.error_to_string e));
  match compact_err "trailing word" (bytes ^ String.make 8 '\x00') with
  | Compact_hub.Length_mismatch { expected_words = 18; actual_words = 19 } -> ()
  | e -> Alcotest.failf "trailing word: got %s" (Compact_hub.error_to_string e)

(* ent_off lives at words 5..8 (0,1,3,6), byte_off at words 9..12
   (0,11,24,39) for the 3-vertex fixture *)
let test_compact_hostile_offsets () =
  let bytes = Lazy.force compact_fixture in
  let bad word v name =
    match compact_err name (patch bytes ~word v) with
    | Compact_hub.Bad_offsets _ -> ()
    | e -> Alcotest.failf "%s: got %s" name (Compact_hub.error_to_string e)
  in
  bad 5 1L "entry offsets must start at 0";
  bad 5 (-1L) "negative first entry offset";
  bad 7 0L "decreasing entry offsets";
  bad 8 7L "entry offset beyond total";
  bad 8 5L "final entry offset below total";
  bad 8 Int64.max_int "entry offset beyond int range";
  bad 9 (-3L) "negative byte offset";
  bad 11 1L "decreasing byte offsets";
  bad 12 38L "final byte offset below blob_len";
  (* monotone but leaving vertex 0 less room than its skip table: the
     shallow room check must refuse, or the query path could read the
     next vertex's bytes as skip slots *)
  bad 10 3L "region too small for its skip table"

(* deep mode strictly re-decodes every region; shallow mode accepts the
   same images and must then answer queries without crashing (possibly
   wrongly — the resilient serving layer spot-checks for that). *)
let test_compact_hostile_varints () =
  let deep_rejects name ?(k = 1) ~substr blob =
    (match compact_err name ~deep:true (mk1 blob ~k) with
    | Compact_hub.Bad_entry { msg; _ } ->
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        if not (contains msg substr) then
          Alcotest.failf "%s: message %S does not mention %S" name msg substr
    | e -> Alcotest.failf "%s: got %s" name (Compact_hub.error_to_string e));
    match Compact_hub.of_bytes_res (mk1 blob ~k) with
    | Error e ->
        Alcotest.failf "%s: shallow load must accept blob rot, got %s" name
          (Compact_hub.error_to_string e)
    | Ok store ->
        (* totality: a clamped decode of hostile bytes, never a crash *)
        ignore (Compact_hub.query store 0 0)
  in
  (* canonical single-entry region, for reference: skip(0,9) 00 00 00 *)
  (match
     Compact_hub.of_bytes_res ~deep:true
       (mk1 (skip_entry ~hub:0 ~off:9 ^ "\x00\x00\x00") ~k:1)
   with
  | Ok store -> Test_util.check_int "canonical d(0,0)" 0 (Compact_hub.query store 0 0)
  | Error e -> Alcotest.failf "canonical: %s" (Compact_hub.error_to_string e));
  (* a continuation bit on every byte runs off the region end *)
  deep_rejects "continuation forever" ~substr:"truncated varint"
    (skip_entry ~hub:0 ~off:9 ^ "\xff\xff\xff");
  (* non-minimal encoding of the base (0x80 0x00 = 0) *)
  deep_rejects "overlong varint" ~substr:"overlong varint"
    (skip_entry ~hub:0 ~off:10 ^ "\x80\x00\x00\x00");
  (* nine continuation bytes overflow a 63-bit native int *)
  deep_rejects "varint overflows int" ~substr:"overflows a native int"
    (skip_entry ~hub:0 ~off:17 ^ String.make 9 '\xff' ^ "\x01\x00\x00");
  (* the skip table must describe the actual layout *)
  deep_rejects "skip offset out of range" ~substr:"byte offset mismatch"
    (skip_entry ~hub:0 ~off:0xffff ^ "\x00\x00\x00");
  deep_rejects "skip first-hub mismatch" ~substr:"first hub mismatch"
    (skip_entry ~hub:5 ~off:9 ^ "\x00\x00\x00");
  (* delta pushes the hub id out of [0, n) *)
  deep_rejects "hub out of range" ~substr:"hub out of range"
    (skip_entry ~hub:5 ~off:9 ^ "\x00\x05\x00");
  (* zigzag below the base: a negative distance *)
  deep_rejects "negative distance" ~substr:"bad distance"
    (skip_entry ~hub:0 ~off:9 ^ "\x00\x00\x01");
  deep_rejects "trailing region bytes" ~substr:"trailing bytes"
    (skip_entry ~hub:0 ~off:9 ^ "\x00\x00\x00\x00");
  (* an empty hubset must own an empty region *)
  match
    compact_err "empty hubset, bytes" ~deep:true
      (mk ~n:1 ~total:0 ~block:1 ~ent_off:[| 0; 0 |] ~byte_off:[| 0; 1 |]
         "\x00")
  with
  | Compact_hub.Bad_entry { msg = "empty hubset with a non-empty region"; _ }
    -> ()
  | e ->
      Alcotest.failf "empty hubset: got %s" (Compact_hub.error_to_string e)

let test_compact_not_a_file () =
  (match Compact_hub.load_res "/nonexistent/hubhard/labels.cbin" with
  | Error (Compact_hub.Io _) -> ()
  | Error e ->
      Alcotest.failf "missing file: got %s" (Compact_hub.error_to_string e)
  | Ok _ -> Alcotest.fail "missing file: expected an error");
  (match Compact_hub.load_res (Filename.get_temp_dir_name ()) with
  | Error (Compact_hub.Not_regular _ | Compact_hub.Io _) -> ()
  | Error e ->
      Alcotest.failf "directory: got %s" (Compact_hub.error_to_string e)
  | Ok _ -> Alcotest.fail "directory: expected an error");
  (* Hub_io's auto-detecting entry point funnels the same errors into
     its parse_error type *)
  match Hub_io.compact_of_bytes_res "HUBFLAT2 and then garbage" with
  | Error e -> Test_util.check_int "parse_error line" 0 e.Graph_io.line
  | Ok _ -> Alcotest.fail "garbage after magic accepted"

let prop_compact_load_total =
  Test_util.qcheck "Compact_hub.of_bytes_res is total on random bytes"
    ~count:150
    QCheck2.Gen.(string_size ~gen:char (int_range 0 220))
    (fun s ->
      (* force the interesting prefix half the time *)
      let s =
        if String.length s > 0 && Char.code s.[0] land 1 = 0 then
          "HUBFLAT2" ^ s
        else s
      in
      match Compact_hub.of_bytes_res ~deep:true s with
      | Ok store ->
          Compact_hub.n store >= 0 && Compact_hub.total_size store >= 0
      | Error _ -> true)

(* memory safety under single-byte corruption: whatever a flipped byte
   does to the blob, a shallowly accepted store must answer every query
   (the skip-table merge clamps and terminates) *)
let prop_compact_flipped_byte_safe =
  Test_util.qcheck "Compact_hub survives any single flipped byte" ~count:200
    QCheck2.Gen.(pair (int_range 0 143) (int_range 1 255))
    (fun (pos, delta) ->
      let bytes = Bytes.of_string (Lazy.force compact_fixture) in
      Bytes.set bytes pos
        (Char.chr ((Char.code (Bytes.get bytes pos) + delta) land 0xff));
      match Compact_hub.of_bytes_res (Bytes.to_string bytes) with
      | Error _ -> true
      | Ok store ->
          let n = Compact_hub.n store in
          (try
             for u = 0 to n - 1 do
               for v = 0 to n - 1 do
                 ignore (Compact_hub.query store u v)
               done
             done;
             true
           with
          | Invalid_argument _ -> true
          | _ -> false))

let suite =
  [
    Alcotest.test_case "graph truncated input" `Quick test_graph_truncated;
    Alcotest.test_case "graph comments and whitespace" `Quick
      test_graph_comments_whitespace;
    Alcotest.test_case "graph bad lines" `Quick test_graph_bad_lines;
    Alcotest.test_case "wgraph bad lines" `Quick test_wgraph_bad_lines;
    Alcotest.test_case "legacy raise compat" `Quick test_compat_raises;
    Alcotest.test_case "hub bad lines" `Quick test_hub_bad_lines;
    Alcotest.test_case "hub comments and whitespace" `Quick
      test_hub_comments_whitespace;
    prop_graph_roundtrip;
    prop_wgraph_roundtrip;
    prop_hub_roundtrip;
    Alcotest.test_case "wire truncated frames" `Quick test_wire_truncated_frames;
    Alcotest.test_case "wire hostile lengths" `Quick test_wire_hostile_lengths;
    Alcotest.test_case "wire garbage opcodes" `Quick test_wire_garbage_opcodes;
    Alcotest.test_case "wire mid-frame EOF on a pipe" `Quick
      test_wire_midframe_eof_on_pipe;
    prop_wire_decode_total;
    Alcotest.test_case "trace ctx truncation at every byte" `Quick
      test_ctx_truncated_every_byte;
    Alcotest.test_case "trace ctx hostile bytes" `Quick test_ctx_hostile_bytes;
    Alcotest.test_case "trace ctx misplaced wrappers" `Quick
      test_ctx_misplaced_wrappers;
    prop_ctx_decode_total;
    Alcotest.test_case "mmap pristine fixture loads" `Quick test_mmap_pristine;
    Alcotest.test_case "mmap truncation at every byte" `Quick
      test_mmap_truncated_every_byte;
    Alcotest.test_case "mmap hostile header words" `Quick
      test_mmap_hostile_header;
    Alcotest.test_case "mmap hostile offsets" `Quick test_mmap_hostile_offsets;
    Alcotest.test_case "mmap hostile entries (deep vs shallow)" `Quick
      test_mmap_hostile_entries;
    Alcotest.test_case "mmap non-regular and missing files" `Quick
      test_mmap_not_a_file;
    prop_mmap_load_total;
    Alcotest.test_case "compact pristine fixture loads" `Quick
      test_compact_pristine;
    Alcotest.test_case "compact truncation at every byte" `Quick
      test_compact_truncated_every_byte;
    Alcotest.test_case "compact hostile header words" `Quick
      test_compact_hostile_header;
    Alcotest.test_case "compact hostile offsets" `Quick
      test_compact_hostile_offsets;
    Alcotest.test_case "compact hostile varints (deep vs shallow)" `Quick
      test_compact_hostile_varints;
    Alcotest.test_case "compact non-regular and missing files" `Quick
      test_compact_not_a_file;
    prop_compact_load_total;
    prop_compact_flipped_byte_safe;
  ]
