(** What the two packed label formats share: the typed load error and
    the read-only file opener.

    [HUBFLAT1] ({!Flat_image}, served by {!Flat_hub} and {!Mmap_hub})
    and [HUBFLAT2] ({!Compact_hub}) are both word-aligned images
    opening with an 8-byte magic and a header of little-endian 64-bit
    words, so every way such a file can be malformed is one of the
    constructors below, and opening one is the same open → fstat →
    map → close sequence whatever the element kind of the view. Each
    store re-exports {!error} and renders it under its own prefix. *)

type error =
  | Io of string  (** open/stat/map failed (missing file, EACCES, ...) *)
  | Not_regular of string  (** not a regular file (directory, device, socket) *)
  | Too_short of { bytes : int }  (** smaller than magic + header *)
  | Misaligned of { bytes : int }
      (** size not a whole number of 8-byte words *)
  | Bad_magic  (** the first 8 bytes are not the format's magic *)
  | Bad_header of { word : int; msg : string }
      (** a header word negative, overflowing a native int or out of
          the format's range; [word] is its byte offset *)
  | Length_mismatch of { expected_words : int; actual_words : int }
      (** file length disagrees with the header *)
  | Bad_offsets of { vertex : int; msg : string }
      (** an offset table not monotone from 0 to its bound *)
  | Bad_entry of { vertex : int; entry : int; msg : string }
      (** deep scan only: a label entry breaks the per-entry contract *)

val error_to_string : prefix:string -> error -> string
(** ["<prefix>: <description>"]. *)

exception Bad of error
(** Internal early exit of the validators' scan loops; they catch it
    and return the [error]. *)

val check_size : min_bytes:int -> int -> (unit, error) result
(** [Too_short] below [min_bytes], else [Misaligned] unless a whole
    number of 8-byte words. *)

val fits_int : int64 -> bool
(** Whether the word round-trips through a native int. *)

val header_int : int64 -> index:int -> (int, error) result
(** Header word [index] as a non-negative native int, else
    [Bad_header] at byte [8 * index]. *)

val open_and_map :
  ('a, 'b) Bigarray.kind ->
  min_bytes:int ->
  string ->
  (('a, 'b, Bigarray.c_layout) Bigarray.Array1.t * int, error) result
(** Map a regular file read-only as a one-dimensional array of [kind]
    and return it with its size in bytes, after {!check_size}. Every
    failure is a typed [error]; the descriptor is closed on every path
    (the mapping survives the close). *)
