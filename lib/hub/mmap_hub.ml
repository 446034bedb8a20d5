open Repro_graph
module A1 = Bigarray.Array1

(* Word layout of the whole file viewed as little-endian int64s:
     word 0           magic "HUBFLAT1"
     word 1           n
     word 2           total entry count
     words 3 .. 3+n   the n+1 CSR offsets
     words 4+n ..     2*total interleaved (hub, dist)
   This is exactly the Hub_io packed form; the magic happens to be
   8 bytes, so the whole file is word-aligned. *)

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

type error =
  | Io of string
  | Not_regular of string
  | Too_short of { bytes : int }
  | Misaligned of { bytes : int }
  | Bad_magic
  | Bad_header of { word : int; msg : string }
  | Length_mismatch of { expected_words : int; actual_words : int }
  | Bad_offsets of { vertex : int; msg : string }
  | Bad_entry of { vertex : int; entry : int; msg : string }

let error_to_string = function
  | Io msg -> "Mmap_hub: " ^ msg
  | Not_regular path -> "Mmap_hub: not a regular file: " ^ path
  | Too_short { bytes } ->
      Printf.sprintf "Mmap_hub: %d bytes is too short for magic + header" bytes
  | Misaligned { bytes } ->
      Printf.sprintf "Mmap_hub: %d bytes is not a whole number of words" bytes
  | Bad_magic -> "Mmap_hub: bad magic"
  | Bad_header { word; msg } ->
      Printf.sprintf "Mmap_hub: header word at byte %d: %s" word msg
  | Length_mismatch { expected_words; actual_words } ->
      Printf.sprintf
        "Mmap_hub: length disagrees with header (expected %d words, file has %d)"
        expected_words actual_words
  | Bad_offsets { vertex; msg } ->
      Printf.sprintf "Mmap_hub: offset of vertex %d: %s" vertex msg
  | Bad_entry { vertex; entry; msg } ->
      Printf.sprintf "Mmap_hub: entry %d of vertex %d: %s" entry vertex msg

exception Bad of error

type raw = {
  n : int;
  total : int;
  words : words;
  path : string;
  bytes : int;
}

let fits_int x = Int64.of_int (Int64.to_int x) = x
let magic_word = String.get_int64_le Hub_io.packed_magic 0
let min_bytes = 8 * 3 (* magic + n + total *)

(* open → fstat → map → close, every failure mode funnelled into a
   typed error; the fd is closed on all paths (the mapping survives). *)
let open_and_map path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (err, _, _) ->
      Error (Io (path ^ ": " ^ Unix.error_message err))
  | fd ->
      let close () = try Unix.close fd with Unix.Unix_error _ -> () in
      let finish r = close (); r in
      (match Unix.fstat fd with
      | exception Unix.Unix_error (err, _, _) ->
          finish (Error (Io (path ^ ": fstat: " ^ Unix.error_message err)))
      | st ->
          if st.Unix.st_kind <> Unix.S_REG then finish (Error (Not_regular path))
          else
            let bytes = st.Unix.st_size in
            if bytes < min_bytes then finish (Error (Too_short { bytes }))
            else if bytes mod 8 <> 0 then finish (Error (Misaligned { bytes }))
            else
              match
                Bigarray.array1_of_genarray
                  (Unix.map_file fd Bigarray.int64 Bigarray.c_layout false
                     [| bytes / 8 |])
              with
              | words -> finish (Ok (words, bytes))
              | exception Unix.Unix_error (err, _, _) ->
                  finish (Error (Io (path ^ ": map: " ^ Unix.error_message err)))
              | exception Sys_error msg -> finish (Error (Io msg)))

let header_word (words : words) ~index =
  let x = A1.get words index in
  let byte = 8 * index in
  if not (fits_int x) then
    Error (Bad_header { word = byte; msg = "overflows native int" })
  else
    let v = Int64.to_int x in
    if v < 0 then Error (Bad_header { word = byte; msg = "negative" })
    else Ok v

(* O(n): monotone from 0 to [total]. Every data index the query path
   derives is [2 * offset] for a validated offset, so this check alone
   bounds all subsequent unsafe reads inside the mapping. *)
let validate_offsets (words : words) ~n ~total =
  let total64 = Int64.of_int total in
  try
    if A1.unsafe_get words 3 <> 0L then
      raise (Bad (Bad_offsets { vertex = 0; msg = "must start at 0" }));
    let prev = ref 0L in
    for v = 1 to n do
      let x = A1.unsafe_get words (3 + v) in
      if x < !prev then
        raise (Bad (Bad_offsets { vertex = v; msg = "must be non-decreasing" }));
      if x > total64 then
        raise
          (Bad (Bad_offsets { vertex = v; msg = "exceeds the entry count" }));
      prev := x
    done;
    if !prev <> total64 then
      raise
        (Bad (Bad_offsets { vertex = n; msg = "must end at the entry count" }));
    Ok ()
  with Bad e -> Error e

let off (t : raw) v = Int64.to_int (A1.unsafe_get t.words (3 + v))

(* O(total): the full per-entry contract of Flat_hub.of_raw. *)
let validate_raw_entries t =
  let base = 4 + t.n in
  let n64 = Int64.of_int t.n in
  try
    for v = 0 to t.n - 1 do
      let prev = ref (-1) in
      for e = off t v to off t (v + 1) - 1 do
        let h64 = A1.unsafe_get t.words (base + (2 * e)) in
        if h64 < 0L || h64 >= n64 then
          raise (Bad (Bad_entry { vertex = v; entry = e; msg = "hub out of range" }));
        let h = Int64.to_int h64 in
        if h <= !prev then
          raise
            (Bad
               (Bad_entry
                  { vertex = v; entry = e;
                    msg = "hubs must be strictly increasing" }));
        prev := h;
        let d64 = A1.unsafe_get t.words (base + (2 * e) + 1) in
        if d64 < 0L || not (fits_int d64) then
          raise
            (Bad (Bad_entry { vertex = v; entry = e; msg = "bad distance" }))
      done
    done;
    Ok ()
  with Bad e -> Error e

module Raw = struct
  type t = raw

  let name = "Mmap_hub"
  let backend_name = "mmap-hub-labeling"
  let n t = t.n
  let size t v = off t (v + 1) - off t v

  let hubs t v =
    let base = 4 + t.n in
    Array.init (size t v) (fun k ->
        let e = off t v + k in
        ( Int64.to_int (A1.get t.words (base + (2 * e))),
          Int64.to_int (A1.get t.words (base + (2 * e) + 1)) ))

  (* The hot path: the same two-pointer merge as Flat_hub.raw_query, with
     the interleaved run walked directly in the mapping. Indices are in
     mapping words; validated offsets bound them, so unsafe gets are
     sound even on a shallow-validated file. *)
  let raw_query t u v =
    let words = t.words in
    let base = 4 + t.n in
    let i = ref (base + (2 * off t u))
    and iend = base + (2 * off t (u + 1))
    and j = ref (base + (2 * off t v))
    and jend = base + (2 * off t (v + 1)) in
    let best = ref Dist.inf in
    while !i < iend && !j < jend do
      let ha = Int64.to_int (A1.unsafe_get words !i)
      and hb = Int64.to_int (A1.unsafe_get words !j) in
      if ha = hb then begin
        let d =
          Dist.add
            (Int64.to_int (A1.unsafe_get words (!i + 1)))
            (Int64.to_int (A1.unsafe_get words (!j + 1)))
        in
        if d < !best then best := d;
        i := !i + 2;
        j := !j + 2
      end
      else if ha < hb then i := !i + 2
      else j := !j + 2
    done;
    !best

  let space_words t = t.n + 1 + (2 * t.total)
  let pp_detail t = Printf.sprintf "%s, n=%d, total=%d" t.path t.n t.total
end

include Hub_store.Make (Raw)

let load_res ?(cache_slots = 0) ?(deep = false) path =
  let wrap = wrap ~cache_slots in
  Repro_obs.Span.run ~name:"mmap-hub.load" (fun () ->
      let ( let* ) = Result.bind in
      let res =
        let* words, bytes = open_and_map path in
        Repro_obs.Span.count "bytes" bytes;
        if A1.get words 0 <> magic_word then Error Bad_magic
        else
          let* n = header_word words ~index:1 in
          let* total = header_word words ~index:2 in
          let actual_words = bytes / 8 in
          (* saturate so 3 + (n+1) + 2*total cannot overflow: any
             n/total beyond the word count already disagrees with the
             length *)
          let expected_words =
            if n > actual_words || total > actual_words then max_int
            else 3 + (n + 1) + (2 * total)
          in
          if expected_words <> actual_words then
            Error (Length_mismatch { expected_words; actual_words })
          else
            let* () = validate_offsets words ~n ~total in
            let t = { n; total; words; path; bytes } in
            let* () = if deep then validate_raw_entries t else Ok () in
            Ok (wrap t)
      in
      (match res with
      | Ok _ -> ()
      | Error e ->
          Repro_obs.Events.emit_ambient ~level:Repro_obs.Events.Warn
            "mmap_hub.load_failure"
            [ ("path", Repro_obs.Events.Str path);
              ("msg", Repro_obs.Events.Str (error_to_string e)) ]);
      res)

let validate_entries t = validate_raw_entries (base t)
let total_size t = (base t).total
let path t = (base t).path
let bytes t = (base t).bytes

let to_flat t =
  let t = base t in
  let offsets = Array.init (t.n + 1) (off t) in
  let base = 4 + t.n in
  let data =
    Array.init (2 * t.total) (fun j ->
        Int64.to_int (A1.get t.words (base + j)))
  in
  Flat_hub.of_raw ~n:t.n ~offsets ~data
