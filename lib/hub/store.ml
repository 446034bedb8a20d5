open Repro_graph

type t =
  | Assoc of Hub_label.t
  | Flat of Flat_hub.t
  | Mmap of Mmap_hub.t
  | Compact of Compact_hub.t

let n = function
  | Assoc l -> Hub_label.n l
  | Flat s -> Flat_hub.n s
  | Mmap s -> Mmap_hub.n s
  | Compact s -> Compact_hub.n s

let kind_name = function
  | Assoc _ -> "assoc"
  | Flat _ -> "flat"
  | Mmap _ -> "mmap"
  | Compact _ -> "compact"

let size = function
  | Assoc l -> Hub_label.size l
  | Flat s -> Flat_hub.size s
  | Mmap s -> Mmap_hub.size s
  | Compact s -> Compact_hub.size s

let query_many ?pool t pairs =
  match t with
  | Assoc l -> Array.map (fun (u, v) -> Hub_label.query l u v) pairs
  | Flat s -> Flat_hub.query_many ?pool s pairs
  | Mmap s -> Mmap_hub.query_many ?pool s pairs
  | Compact s -> Compact_hub.query_many ?pool s pairs

let backend = function
  | Assoc l -> Hub_label.backend l
  | Flat s -> Flat_hub.backend s
  | Mmap s -> Mmap_hub.backend s
  | Compact s -> Compact_hub.backend s

let ops ?pool = function
  | Assoc _ -> None
  | Flat s -> Some (Flat_hub.ops ?pool s)
  | Mmap s -> Some (Mmap_hub.ops ?pool s)
  | Compact s -> Some (Compact_hub.ops ?pool s)

let with_cache ~cache_slots = function
  | Assoc _ as t ->
      if cache_slots <> 0 then
        invalid_arg "Store.with_cache: the assoc labeling has no cache";
      t
  | Flat s -> Flat (Flat_hub.with_cache ~cache_slots s)
  | Mmap s -> Mmap (Mmap_hub.with_cache ~cache_slots s)
  | Compact s -> Compact (Compact_hub.with_cache ~cache_slots s)

let cache_stats = function
  | Assoc _ -> None
  | Flat s -> Flat_hub.cache_stats s
  | Mmap s -> Mmap_hub.cache_stats s
  | Compact s -> Compact_hub.cache_stats s

let check_graph t g =
  if n t = Graph.n g then Ok ()
  else
    Error
      (Printf.sprintf "%s store has n=%d but graph has n=%d" (kind_name t)
         (n t) (Graph.n g))
