(** One handle over every label store the serving layers accept.

    The resilient oracle, the shard worker and router, the CLI and the
    serve snapshots all take a [Store.t], so "exactly one store" is a
    type, not a doc comment, and adding a store is one constructor
    here. *)

open Repro_graph

type t =
  | Assoc of Hub_label.t  (** per-vertex tuple arrays, no cache *)
  | Flat of Flat_hub.t  (** heap CSR arrays ([HUBFLAT1] parsed) *)
  | Mmap of Mmap_hub.t  (** zero-copy mapped [HUBFLAT1] *)
  | Compact of Compact_hub.t  (** compressed [HUBFLAT2] *)

val n : t -> int

val kind_name : t -> string
(** ["assoc"], ["flat"], ["mmap"] or ["compact"] — the [store] field of
    [serve loop] snapshots. *)

val size : t -> int -> int
(** Hubset size of a vertex.
    @raise Invalid_argument on an out-of-range vertex. *)

val query_many : ?pool:Repro_par.Pool.t -> t -> (int * int) array -> int array
(** The store's batched query (a [query] loop for [Assoc]).
    @raise Invalid_argument if any endpoint is out of range. *)

val backend : t -> Repro_obs.Backend.t

val ops : ?pool:Repro_par.Pool.t -> t -> Repro_obs.Backend.ops option
(** The store's native aggregate evaluator; [None] for [Assoc], whose
    point query the oracle lifts over {!Repro_obs.Ops.brute}. *)

val with_cache : cache_slots:int -> t -> t
(** A packed store with a fresh direct-mapped cache ([0] removes it).
    @raise Invalid_argument if [cache_slots < 0], or on an [Assoc]
    labeling with [cache_slots <> 0]. *)

val cache_stats : t -> (int * int) option
(** [Some (hits, misses)] for a cached packed store, [None] otherwise. *)

val check_graph : t -> Graph.t -> (unit, string) result
(** [Error "<kind> store has n=A but graph has n=B"] when the store and
    the graph disagree on the vertex count. *)
