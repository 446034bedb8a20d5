(** Plain-text serialisation of hub labelings.

    Format: header ["n total"], then one line per vertex:
    ["v k h1 d1 h2 d2 ..."]. Lossless. Blank lines and [#]-comments
    are ignored.

    {!of_string_res} is the canonical (and only) entry point: it
    rejects out-of-range vertex/hub ids, negative distances, duplicate
    vertex lines, and count mismatches against the header, reporting
    the offending input line. The raising shims of early revisions are
    gone — match on the [result]. *)

type parse_error = Repro_graph.Graph_io.parse_error = {
  line : int;
  msg : string;
}

val to_string : Hub_label.t -> string

val of_string_res : string -> (Hub_label.t, parse_error) result

(** {1 Binary packed form}

    Serialisation of {!Flat_hub.t}: the bytes of its {!Flat_image} —
    an 8-byte magic ["HUBFLAT1"] followed by little-endian 64-bit
    words: [n], the total entry count, the [n+1] CSR offsets and the
    [2*total] interleaved [(hub, dist)] words. The encoding is
    canonical, so save → load → save round-trips byte-for-byte. *)

val packed_magic : string
(** The 8-byte magic ["HUBFLAT1"] that opens every packed file (also
    the first word of every {!Flat_image}). *)

val is_packed : string -> bool
(** Whether the string starts with the packed-form magic (used to
    auto-detect binary label files). *)

val flat_to_bytes : Flat_hub.t -> string

val flat_of_bytes_res : string -> (Flat_hub.t, parse_error) result
(** Deep-validated heap load ({!Flat_image.of_string}): the one
    [HUBFLAT1] validator, so a file is rejected here exactly when
    {!Mmap_hub.load_res} [~deep:true] rejects it, with the same
    {!Packed_file.error}. The error is rendered under the prefix
    ["Hub_io.flat_of_bytes"] with [line = 0]. *)

(** {1 Compressed packed form}

    The [HUBFLAT2] encoding of {!Compact_hub}: delta-varint hub ids,
    zigzag-varint distances against a per-vertex base, block skip
    tables (see that module for the layout). Also canonical, so
    save → load → save round-trips byte-for-byte. *)

val compact_magic : string
(** The 8-byte magic ["HUBFLAT2"] that opens every compressed file. *)

val is_compact : string -> bool
(** Whether the string starts with the compressed-form magic (used to
    auto-detect binary label files next to {!is_packed}). *)

val compact_to_bytes : ?block:int -> Flat_hub.t -> string
(** {!Compact_hub.to_bytes} under the IO spans. *)

val compact_of_bytes_res : string -> (Compact_hub.t, parse_error) result
(** Deep-validated heap decode ({!Compact_hub.of_bytes_res}
    [~deep:true] — the parse mirror of {!flat_of_bytes_res}'s full
    validation), with the typed {!Compact_hub.error} rendered into the
    uniform [parse_error]. *)
