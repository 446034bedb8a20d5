(** The [HUBFLAT1] word image: the one storage, validator and merge
    behind {!Flat_hub} and {!Mmap_hub}.

    A labeling is frozen in CSR style into one array of little-endian
    64-bit words, exactly the bytes of a packed label file (the sorted
    contiguous label arrays of [AIY13], cf. the space-conscious
    encodings of Gawrychowski–Kosowski–Uznański, arXiv:1507.06240):

    - word 0: the magic ["HUBFLAT1"]; word 1: [n]; word 2: [total],
      the entry count;
    - words [3 .. 3+n]: the [n+1] offsets; the hubset of vertex [v]
      is entries [offset v .. offset (v+1) - 1];
    - then [2 * total] words, entry [e] interleaved as (hub, dist),
      the entries of each vertex sorted by strictly increasing hub.

    The graphs here are undirected, so one direction serves both sides
    of a query. The image is built on the heap ({!build}), copied from
    bytes ({!of_string}) or mapped from a file (by {!Mmap_hub}); all
    three pass the same {!validate}, and both stores answer with the
    same {!raw_query}. *)

type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t
(** A validated image: header and offsets always, entries too when
    validated deep. *)

val magic : string
(** ["HUBFLAT1"], the first 8 bytes of every image. *)

val min_bytes : int
(** Magic plus the [n] and [total] words: 24. *)

val build : n:int -> size:(int -> int) -> hubs:(int -> (int * int) array) -> t
(** Write the image of the hubsets [hubs 0 .. hubs (n-1)] ([size v]
    their lengths). Trusts its input: run {!validate_entries} when the
    hubsets may be malformed. *)

val of_string : string -> (t, Packed_file.error) result
(** Copy the bytes of a packed file into a fresh image and
    {!validate} it deep. Never raises on malformed input. *)

val validate : ?deep:bool -> words -> (t, Packed_file.error) result
(** The one [HUBFLAT1] validator, total on any word array: size,
    magic, the [n]/[total] header words (non-negative native ints),
    the length they imply (saturated, so it cannot overflow), and the
    offset table (monotone from 0 to [total]) — O(n). After it, every
    read of the merge is in bounds, whatever the entry words hold.
    [deep] (default [false]) adds {!validate_entries}. *)

val validate_entries : t -> (unit, Packed_file.error) result
(** The O(total) entry scan: every hubset sorted by strictly
    increasing hub id in [[0, n)], every distance a non-negative
    native int. *)

val to_bytes : t -> string
(** The image as the bytes of a packed file. *)

val n : t -> int
val total : t -> int

val path : t -> string
(** The file the image is mapped from, or [""] for a heap image. *)

val with_path : t -> string -> t
(** The same words under another {!path}. *)

val bytes : t -> int
(** Size of the image in bytes — the size of its packed file. *)

val equal : t -> t -> bool
(** The same words (the path is ignored). *)

module Store (Id : sig
  val name : string
  val backend_name : string
end) : Hub_store.RAW with type t = t
(** The image as a {!Hub_store.RAW} named [Id.name] / [Id.backend_name]:
    the two-pointer merge and the per-vertex accessors over validated
    offsets. [pp_detail] is ["n=.., total=.."], preceded by the path
    for a mapped image. *)
