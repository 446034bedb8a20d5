(** Packed hub-label store on the heap — the serving-grade layout.

    {!Hub_label.t} keeps one [(hub, dist)] tuple array per vertex; every
    access chases a pointer per pair. This module freezes a labeling
    into one {!Flat_image}: the [HUBFLAT1] word image, the same words a
    packed label file holds and {!Mmap_hub} maps. Queries are the same
    two-pointer sorted merge intersection as {!Hub_label.query}, over
    contiguous unboxed words, and are the very merge {!Mmap_hub} runs.

    The cache, batching, backend and ops surface come from
    {!Hub_store.Make}; the format, its validator and its merge are
    {!Flat_image}'s. *)

type t

val of_labels : ?cache_slots:int -> Hub_label.t -> t
(** Freeze a labeling. [cache_slots] (default 0 = no cache) enables a
    direct-mapped distance cache with that many slots.
    @raise Invalid_argument if [cache_slots < 0]. *)

val of_image : Flat_image.t -> t
(** Serve an image, without a cache — see {!with_cache}. The image
    must be validated deep ({!Flat_image.of_string} does;
    {!Flat_image.build} trusts its input). *)

val with_cache : cache_slots:int -> t -> t
(** The same store with a fresh direct-mapped cache of [cache_slots]
    slots ([0] removes the cache). The image is shared, not copied.
    @raise Invalid_argument if [cache_slots < 0]. *)

val image : t -> Flat_image.t
(** The image the store serves (shared, not copied). *)

val bytes : t -> int
(** Size in bytes of the image, which is the size of its packed
    file. *)

val to_labels : t -> Hub_label.t
(** Thaw back into the per-vertex representation (for verification and
    interop). [to_labels (of_labels l)] is semantically equal to [l]. *)

val n : t -> int
val size : t -> int -> int
(** Hubset size of a vertex. *)

val total_size : t -> int

val hubs : t -> int -> (int * int) array
(** The hubset of a vertex as fresh [(hub, dist)] pairs, sorted by hub
    id (materialised from the image; intended for tests and debugging,
    not the hot path). *)

val query : t -> int -> int -> int
(** Two-pointer merge intersection over the image
    ({!Hub_store.S.query}).
    @raise Invalid_argument on out-of-range endpoints. *)

val query_many : ?pool:Repro_par.Pool.t -> t -> (int * int) array -> int array
(** {!Hub_store.S.query_many}: equals the [query] loop for any job
    count.
    @raise Invalid_argument if any endpoint is out of range. *)

val cache_stats : t -> (int * int) option
(** [Some (hits, misses)] for a cached store, [None] otherwise. *)

val equal : t -> t -> bool
(** Equality of the images (ignores the cache). *)

val pp : Format.formatter -> t -> unit

val space_words : t -> int
(** Words of the label structure: [(n + 1) + 2 * total]. *)

val backend : t -> Repro_obs.Backend.t
(** {!Hub_store.S.backend}, named ["flat-hub-labeling"]. *)

val ops : ?pool:Repro_par.Pool.t -> t -> Repro_obs.Backend.ops
(** {!Hub_store.S.ops}. *)
