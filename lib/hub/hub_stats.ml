let sizes t = Array.init (Hub_label.n t) (fun v -> Hub_label.size t v)

let histogram t =
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      Hashtbl.replace counts s
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)))
    (sizes t);
  Hashtbl.fold (fun s c acc -> (s, c) :: acc) counts []
  |> List.sort compare

let quantile t q =
  let s = sizes t in
  if Array.length s = 0 then 0
  else begin
    Array.sort compare s;
    let idx =
      int_of_float (q *. float_of_int (Array.length s - 1) +. 0.5)
    in
    s.(max 0 (min (Array.length s - 1) idx))
  end

let ceil_log2 x =
  let rec go acc p = if p >= x then acc else go (acc + 1) (2 * p) in
  if x <= 1 then 0 else go 0 1

let bits_naive t =
  let n = Hub_label.n t in
  let maxd = ref 0 in
  for v = 0 to n - 1 do
    Array.iter
      (fun (_, d) -> if d > !maxd then maxd := d)
      (Hub_label.hubs t v)
  done;
  let per_pair = ceil_log2 (max n 2) + ceil_log2 (!maxd + 2) in
  Hub_label.total_size t * per_pair

let bits_per_vertex t =
  let n = Hub_label.n t in
  if n = 0 then 0.0 else float_of_int (bits_naive t) /. float_of_int n

type packed_sizes = {
  entries : int;
  avg_size : float;
  max_size : int;
  flat1_bytes : int;
  flat2_bytes : int;
  flat1_bits_per_entry : float;
  flat2_bits_per_entry : float;
}

let packed_sizes flat =
  let n = Flat_hub.n flat in
  let entries = Flat_hub.total_size flat in
  let max_size = ref 0 in
  for v = 0 to n - 1 do
    let s = Flat_hub.size flat v in
    if s > !max_size then max_size := s
  done;
  let flat1_bytes = Flat_hub.bytes flat in
  let flat2_bytes = String.length (Compact_hub.to_bytes flat) in
  let per b = if entries = 0 then 0. else 8. *. float_of_int b /. float_of_int entries in
  { entries;
    avg_size = (if n = 0 then 0. else float_of_int entries /. float_of_int n);
    max_size = !max_size;
    flat1_bytes;
    flat2_bytes;
    flat1_bits_per_entry = per flat1_bytes;
    flat2_bits_per_entry = per flat2_bytes }

let packed_report p =
  Printf.sprintf
    "entries: %d\navg hubs/vertex: %.2f\nmax hubs: %d\n\
     HUBFLAT1: %d bytes (%.1f bits/entry)\n\
     HUBFLAT2: %d bytes (%.1f bits/entry)\ncompression: %.2fx"
    p.entries p.avg_size p.max_size p.flat1_bytes p.flat1_bits_per_entry
    p.flat2_bytes p.flat2_bits_per_entry
    (if p.flat2_bytes = 0 then 0.
     else float_of_int p.flat1_bytes /. float_of_int p.flat2_bytes)

let report t =
  let n = Hub_label.n t in
  Printf.sprintf
    "vertices: %d\ntotal hubs: %d\navg hubs/vertex: %.2f\nmax hubs: %d\n\
     median hubs: %d\nnaive label bits/vertex: %.1f"
    n (Hub_label.total_size t) (Hub_label.avg_size t) (Hub_label.max_size t)
    (quantile t 0.5) (bits_per_vertex t)
