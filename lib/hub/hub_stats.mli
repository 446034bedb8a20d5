(** Size accounting and reporting for hub labelings. *)

val sizes : Hub_label.t -> int array

val histogram : Hub_label.t -> (int * int) list
(** [(size, how many vertices)] pairs, sorted by size. *)

val quantile : Hub_label.t -> float -> int
(** [quantile t 0.5] is the median hubset size. *)

val bits_naive : Hub_label.t -> int
(** Bits of the naive binary encoding: each pair costs
    [⌈log₂ n⌉ + ⌈log₂ (1 + max stored distance)⌉] bits. This is the
    "log n overhead" encoding the related-work section contrasts with
    the compressed encodings of [GKU16]/[AGHP16a]. *)

val bits_per_vertex : Hub_label.t -> float

val report : Hub_label.t -> string
(** Multi-line human-readable summary. *)

(** {1 Measured on-disk cost}

    The paper's headline quantity is label {e bits}; these helpers
    measure what the two binary stores actually pay, rather than the
    information-theoretic [bits_naive] estimate. *)

type packed_sizes = {
  entries : int;  (** total label entries across all vertices *)
  avg_size : float;  (** average hubset size *)
  max_size : int;  (** largest hubset *)
  flat1_bytes : int;  (** whole [HUBFLAT1] image ({!Flat_hub.bytes}) *)
  flat2_bytes : int;  (** whole [HUBFLAT2] image ({!Compact_hub.to_bytes}) *)
  flat1_bits_per_entry : float;  (** [8 * flat1_bytes / entries] *)
  flat2_bits_per_entry : float;  (** [8 * flat2_bytes / entries] *)
}

val packed_sizes : Flat_hub.t -> packed_sizes
(** Measure the store's [HUBFLAT1] image and its [HUBFLAT2] encoding
    ([0.] ratios on an empty store). *)

val packed_report : packed_sizes -> string
(** Multi-line human-readable summary, including the
    [flat1 / flat2] compression ratio. *)
