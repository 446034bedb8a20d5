open Repro_graph
module A1 = Bigarray.Array1

(* Word layout of a HUBFLAT1 image, as little-endian int64s:
     word 0           magic "HUBFLAT1"
     word 1           n
     word 2           total entry count
     words 3 .. 3+n   the n+1 CSR offsets
     words 4+n ..     2*total interleaved (hub, dist)
   The magic is 8 bytes, so the whole file is word-aligned and one
   image serves the heap store, the mapped store and the file. *)

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t
type t = { n : int; total : int; words : words; path : string }

let magic = "HUBFLAT1"
let magic_word = String.get_int64_le magic 0
let min_bytes = 8 * 3 (* magic + n + total *)
let n t = t.n
let total t = t.total
let path t = t.path
let with_path t path = { t with path }
let bytes t = 8 * A1.dim t.words
let off t v = Int64.to_int (A1.unsafe_get t.words (3 + v))

let build ~n ~size ~hubs =
  let total = ref 0 in
  for v = 0 to n - 1 do
    total := !total + size v
  done;
  let total = !total in
  let words =
    A1.create Bigarray.int64 Bigarray.c_layout (3 + (n + 1) + (2 * total))
  in
  let set i x = A1.set words i (Int64.of_int x) in
  A1.set words 0 magic_word;
  set 1 n;
  set 2 total;
  let e = ref 0 in
  for v = 0 to n - 1 do
    set (3 + v) !e;
    Array.iter
      (fun (h, d) ->
        set (4 + n + (2 * !e)) h;
        set (4 + n + (2 * !e) + 1) d;
        incr e)
      (hubs v)
  done;
  set (3 + n) !e;
  { n; total; words; path = "" }

let to_bytes t =
  let b = Bytes.create (bytes t) in
  for i = 0 to A1.dim t.words - 1 do
    Bytes.set_int64_le b (8 * i) (A1.unsafe_get t.words i)
  done;
  Bytes.unsafe_to_string b

let equal a b = a.n = b.n && a.total = b.total && a.words = b.words

(* ---------------------------------------------------------------- *)
(* The one validator. *)

let bad e = raise (Packed_file.Bad e)
let bad_entry vertex entry msg =
  bad (Packed_file.Bad_entry { vertex; entry; msg })

(* O(n): monotone from 0 to [total]. Every data index the merge derives
   is [2 * offset] for a validated offset, so this check alone bounds
   all of its unsafe reads. *)
let validate_offsets (words : words) ~n ~total =
  let total64 = Int64.of_int total in
  let bad_offsets vertex msg = bad (Packed_file.Bad_offsets { vertex; msg }) in
  try
    if A1.unsafe_get words 3 <> 0L then bad_offsets 0 "must start at 0";
    let prev = ref 0L in
    for v = 1 to n do
      let x = A1.unsafe_get words (3 + v) in
      if x < !prev then bad_offsets v "must be non-decreasing";
      if x > total64 then bad_offsets v "exceeds the entry count";
      prev := x
    done;
    if !prev <> total64 then bad_offsets n "must end at the entry count";
    Ok ()
  with Packed_file.Bad e -> Error e

(* O(total): sorted strictly-increasing hubs in [0, n) with
   non-negative native-int distances. *)
let validate_entries t =
  let base = 4 + t.n in
  let n64 = Int64.of_int t.n in
  try
    for v = 0 to t.n - 1 do
      let prev = ref (-1) in
      for e = off t v to off t (v + 1) - 1 do
        let h64 = A1.unsafe_get t.words (base + (2 * e)) in
        if h64 < 0L || h64 >= n64 then bad_entry v e "hub out of range";
        let h = Int64.to_int h64 in
        if h <= !prev then bad_entry v e "hubs must be strictly increasing";
        prev := h;
        let d64 = A1.unsafe_get t.words (base + (2 * e) + 1) in
        if d64 < 0L || not (Packed_file.fits_int d64) then
          bad_entry v e "bad distance"
      done
    done;
    Ok ()
  with Packed_file.Bad e -> Error e

let validate ?(deep = false) (words : words) =
  let ( let* ) = Result.bind in
  let actual_words = A1.dim words in
  let* () = Packed_file.check_size ~min_bytes (8 * actual_words) in
  if A1.get words 0 <> magic_word then Error Packed_file.Bad_magic
  else
    let* n = Packed_file.header_int (A1.get words 1) ~index:1 in
    let* total = Packed_file.header_int (A1.get words 2) ~index:2 in
    (* saturate so 3 + (n+1) + 2*total cannot overflow: any n/total
       beyond the word count already disagrees with the length *)
    let expected_words =
      if n > actual_words || total > actual_words then max_int
      else 3 + (n + 1) + (2 * total)
    in
    if expected_words <> actual_words then
      Error (Packed_file.Length_mismatch { expected_words; actual_words })
    else
      let* () = validate_offsets words ~n ~total in
      let t = { n; total; words; path = "" } in
      let* () = if deep then validate_entries t else Ok () in
      Ok t

let of_string s =
  let bytes = String.length s in
  Result.bind (Packed_file.check_size ~min_bytes bytes) (fun () ->
      let words = A1.create Bigarray.int64 Bigarray.c_layout (bytes / 8) in
      for i = 0 to (bytes / 8) - 1 do
        A1.unsafe_set words i (String.get_int64_le s (8 * i))
      done;
      validate ~deep:true words)

(* ---------------------------------------------------------------- *)
(* The one merge and the rest of the store format. *)

let hubs t v =
  let base = 4 + t.n in
  Array.init
    (off t (v + 1) - off t v)
    (fun k ->
      let e = off t v + k in
      ( Int64.to_int (A1.get t.words (base + (2 * e))),
        Int64.to_int (A1.get t.words (base + (2 * e) + 1)) ))

(* The hot path: a two-pointer merge over the interleaved runs, indices
   in image words. Validated offsets bound them, so the unsafe gets are
   sound even on a shallow-validated image. *)
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

module Store (Id : sig
  val name : string
  val backend_name : string
end) =
struct
  type nonrec t = t

  let name = Id.name
  let backend_name = Id.backend_name
  let n t = t.n
  let size t v = off t (v + 1) - off t v
  let hubs = hubs
  let raw_query = raw_query
  let space_words t = t.n + 1 + (2 * t.total)

  let pp_detail t =
    if t.path = "" then Printf.sprintf "n=%d, total=%d" t.n t.total
    else Printf.sprintf "%s, n=%d, total=%d" t.path t.n t.total
end
