type parse_error = Repro_graph.Graph_io.parse_error = { line : int; msg : string }

exception Parse of parse_error

let fail line msg = raise (Parse { line; msg })

let to_string labels =
  Repro_obs.Span.run ~name:"hub-io.save-text" (fun () ->
  let buf = Buffer.create 4096 in
  let n = Hub_label.n labels in
  Buffer.add_string buf
    (Printf.sprintf "%d %d\n" n (Hub_label.total_size labels));
  for v = 0 to n - 1 do
    let hubs = Hub_label.hubs labels v in
    Buffer.add_string buf (Printf.sprintf "%d %d" v (Array.length hubs));
    Array.iter
      (fun (h, d) -> Buffer.add_string buf (Printf.sprintf " %d %d" h d))
      hubs;
    Buffer.add_char buf '\n'
  done;
  Repro_obs.Span.count "bytes" (Buffer.length buf);
  Buffer.contents buf)

let numbered_lines s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')

let ints ln line =
  String.split_on_char ' ' line
  |> List.filter (fun t -> t <> "")
  |> List.map (fun t ->
         match int_of_string_opt t with
         | Some i -> i
         | None -> fail ln ("Hub_io.of_string: bad token " ^ t))

let of_string_res s =
  Repro_obs.Span.run ~name:"hub-io.load-text" (fun () ->
  Repro_obs.Span.count "bytes" (String.length s);
  let what = "Hub_io.of_string" in
  try
    match numbered_lines s with
    | [] -> fail 0 (what ^ ": empty input")
    | (hln, header) :: rest -> (
        match ints hln header with
        | [ n; total ] ->
            if n < 0 then fail hln (what ^ ": negative vertex count");
            if total < 0 then fail hln (what ^ ": negative total size");
            if List.length rest <> n then
              fail hln (what ^ ": vertex count mismatch");
            let sets = Array.make n [] in
            let seen = Array.make n false in
            let declared = ref 0 in
            List.iter
              (fun (ln, line) ->
                match ints ln line with
                | v :: k :: pairs ->
                    if v < 0 || v >= n then
                      fail ln (what ^ ": vertex out of range");
                    if seen.(v) then
                      fail ln (what ^ ": duplicate vertex line");
                    seen.(v) <- true;
                    if k < 0 then fail ln (what ^ ": negative hub count");
                    if List.length pairs <> 2 * k then
                      fail ln (what ^ ": pair count mismatch");
                    declared := !declared + k;
                    let rec collect = function
                      | [] -> []
                      | h :: d :: tl ->
                          if h < 0 || h >= n then
                            fail ln (what ^ ": hub out of range");
                          if d < 0 then
                            fail ln (what ^ ": negative distance");
                          (h, d) :: collect tl
                      | [ _ ] ->
                          (* unreachable: [pairs] has even length 2k *)
                          fail ln (what ^ ": odd pair list")
                    in
                    sets.(v) <- collect pairs
                | _ -> fail ln (what ^ ": bad vertex line"))
              rest;
            if !declared <> total then
              fail hln (what ^ ": total size mismatch");
            (match Hub_label.make ~n sets with
            | labels -> Ok labels
            | exception Invalid_argument msg -> fail 0 msg)
        | _ -> fail hln (what ^ ": bad header"))
  with Parse e ->
    Repro_obs.Events.emit_ambient ~level:Repro_obs.Events.Warn
      "hub_io.parse_failure"
      [ ("line", Repro_obs.Events.Int e.line);
        ("msg", Repro_obs.Events.Str e.msg) ];
    Error e)

(* ---------------------------------------------------------------- *)
(* The packed flat form: the bytes of a Flat_image. *)

let packed_magic = Flat_image.magic

let is_packed s =
  String.length s >= String.length packed_magic
  && String.sub s 0 (String.length packed_magic) = packed_magic

let flat_to_bytes flat =
  Repro_obs.Span.run ~name:"hub-io.save-packed" (fun () ->
  let s = Flat_image.to_bytes (Flat_hub.image flat) in
  Repro_obs.Span.count "bytes" (String.length s);
  s)

(* A packed store's typed load error as a parse_error: line 0, the
   message names the offending word. *)
let packed_failure msg =
  Repro_obs.Events.emit_ambient ~level:Repro_obs.Events.Warn
    "hub_io.parse_failure"
    [ ("byte", Repro_obs.Events.Int 0); ("msg", Repro_obs.Events.Str msg) ];
  Error { line = 0; msg }

let flat_of_bytes_res s =
  Repro_obs.Span.run ~name:"hub-io.load-packed" (fun () ->
  Repro_obs.Span.count "bytes" (String.length s);
  match Flat_image.of_string s with
  | Ok image -> Ok (Flat_hub.of_image image)
  | Error e ->
      packed_failure
        (Packed_file.error_to_string ~prefix:"Hub_io.flat_of_bytes" e))

(* ---------------------------------------------------------------- *)
(* Compressed packed form: the HUBFLAT2 encoding of Compact_hub. *)

let compact_magic = Compact_hub.magic

let is_compact s =
  String.length s >= String.length compact_magic
  && String.sub s 0 (String.length compact_magic) = compact_magic

let compact_to_bytes ?block flat = Compact_hub.to_bytes ?block flat

let compact_of_bytes_res s =
  (* the heap parse path validates in full, like flat_of_bytes_res;
     shallow opens are the mmap path's business (Compact_hub.load_res) *)
  match Compact_hub.of_bytes_res ~deep:true s with
  | Ok t -> Ok t
  | Error e -> packed_failure (Compact_hub.error_to_string e)

